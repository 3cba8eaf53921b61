"""Linter rules: positive hits, noqa suppression, allowlists, self-lint."""

import json
import pathlib
import textwrap

from repro.analysis import lint_paths, lint_source
from repro.analysis.lint import RULES, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _codes(findings):
    return [(f.code, f.line) for f in findings]


def lint(snippet, path="pkg/somewhere.py", select=None):
    return lint_source(textwrap.dedent(snippet), path, select=select)


# -- RPR001: global RNG ------------------------------------------------------

def test_rpr001_unseeded_default_rng():
    findings = lint(
        """\
        import numpy as np
        rng = np.random.default_rng()
        """
    )
    assert _codes(findings) == [("RPR001", 2)]


def test_rpr001_seeded_generators_pass():
    assert lint(
        """\
        import numpy as np
        a = np.random.default_rng(0)
        b = np.random.default_rng(seed)
        c = np.random.Generator(np.random.PCG64(7))
        """
    ) == []


def test_rpr001_legacy_global_functions_always_flagged():
    findings = lint(
        """\
        import numpy as np
        np.random.seed(0)
        x = np.random.rand(3)
        """
    )
    assert _codes(findings) == [("RPR001", 2), ("RPR001", 3)]


def test_rpr001_from_import_alias_tracked():
    findings = lint(
        """\
        from numpy.random import default_rng as mk
        rng = mk()
        ok = mk(3)
        """
    )
    assert _codes(findings) == [("RPR001", 2)]


def test_rpr001_numpy_alias_tracked():
    findings = lint(
        """\
        import numpy
        from numpy import random as npr
        a = numpy.random.default_rng()
        b = npr.default_rng()
        """
    )
    assert _codes(findings) == [("RPR001", 3), ("RPR001", 4)]


def test_rpr001_unrelated_default_rng_name_ignored():
    # someone else's default_rng (not numpy's) must not be flagged
    assert lint(
        """\
        from mylib import default_rng
        rng = default_rng()
        """
    ) == []


def test_rpr001_sanctioned_module_allowed():
    findings = lint(
        """\
        import numpy as np
        rng = np.random.default_rng()
        """,
        path="src/repro/nn/rng.py",
    )
    assert findings == []


# -- RPR002: raw .data assignment --------------------------------------------

def test_rpr002_raw_data_assignment():
    findings = lint(
        """\
        def step(param, update):
            param.data = param.data - update
        """
    )
    assert _codes(findings) == [("RPR002", 2)]


def test_rpr002_augmented_and_tuple_targets():
    findings = lint(
        """\
        p.data -= g
        a.data, b.data = x, y
        """
    )
    assert [c for c, _ in _codes(findings)] == ["RPR002"] * 3


def test_rpr002_reads_are_fine():
    assert lint("x = param.data * 2\nparam.grad = None\n") == []


def test_rpr002_sanctioned_optimizer_path():
    snippet = "param.data = param.data - update\n"
    assert lint(snippet, path="src/repro/nn/optim/sgd.py") == []
    assert _codes(lint(snippet, path="src/repro/quant/qmodules.py")) == [
        ("RPR002", 1)
    ]


# -- RPR007: from_float outside repro.quant ----------------------------------

def test_rpr007_direct_from_float_flagged():
    findings = lint(
        """\
        from repro.quant import QConv2d, QLinear
        q = QConv2d.from_float(conv)
        p = QLinear.from_float(linear)
        """
    )
    assert _codes(findings) == [("RPR007", 2), ("RPR007", 3)]


def test_rpr007_attribute_chain_flagged():
    findings = lint(
        """\
        from repro import quant
        q = quant.QConv2d.from_float(conv)
        """
    )
    assert _codes(findings) == [("RPR007", 2)]


def test_rpr007_sanctioned_inside_quant_package():
    assert lint(
        "q = QConv2d.from_float(conv)\n",
        path="src/repro/quant/convert.py",
    ) == []


def test_rpr007_other_from_float_passes():
    # only the quantized-twin constructors are fenced off
    assert lint("x = Decimal.from_float(0.5)\n") == []


# -- RPR008: direct tape execution outside the engine layer ------------------

def test_rpr008_direct_backward_call_flagged():
    findings = lint(
        """\
        loss = model(x)
        loss.backward()
        """
    )
    assert _codes(findings) == [("RPR008", 2)]


def test_rpr008_autograd_backward_and_import_flagged():
    findings = lint(
        """\
        from repro.nn.autograd import backward
        from repro.nn import autograd
        autograd.backward(loss)
        """
    )
    assert _codes(findings) == [("RPR008", 1), ("RPR008", 3)]


def test_rpr008_topological_order_reference_flagged():
    findings = lint(
        """\
        from repro.nn.autograd import _topological_order
        order = _topological_order(root)
        """
    )
    assert [c for c, _ in _codes(findings)] == ["RPR008"] * 2


def test_rpr008_run_backward_passes():
    assert lint(
        """\
        from repro.engine import run_backward
        run_backward(loss)
        """
    ) == []


def test_rpr008_sanctioned_inside_engine_nn_and_tests():
    snippet = "loss.backward()\n"
    assert lint(snippet, path="src/repro/engine/plan.py") == []
    assert lint(snippet, path="src/repro/nn/tensor.py") == []
    assert lint(snippet, path="tests/nn/test_autograd.py") == []
    assert _codes(lint(snippet, path="src/repro/eval/finetune.py")) == [
        ("RPR008", 1)
    ]


# -- RPR012: ops reading their parents ---------------------------------------

def test_rpr012_parents_read_in_function_subclass_flagged():
    findings = lint(
        """\
        from repro.nn import autograd
        from repro.nn.autograd import Function
        class Add(Function):
            def backward(self, grad):
                if len(self.parents) > 1:
                    return grad, grad
                return (grad,)
        class Mul(autograd.Function):
            def backward(self, grad):
                return tuple(grad for _ in self.parents)
        """
    )
    assert _codes(findings) == [("RPR012", 5), ("RPR012", 10)]


def test_rpr012_subclass_of_a_local_op_flagged():
    findings = lint(
        """\
        class Base(Function):
            pass
        class Child(Base):
            def backward(self, grad):
                def count():
                    return len(self.parents)
                return (grad,) * count()
        """
    )
    assert _codes(findings) == [("RPR012", 6)]


def test_rpr012_gradient_flags_writes_and_other_classes_pass():
    assert lint(
        """\
        class Add(Function):
            def forward(self, a, b):
                self.parents = ()
                return a + b
            def backward(self, grad):
                return (grad,) * len(self.needs_input_grad)
        class Node:
            def depth(self):
                return len(self.parents)
        def schedule(ctx):
            return ctx.parents
        """
    ) == []


def test_rpr012_sanctioned_inside_autograd():
    snippet = """\
        class Function:
            pass
        class Probe(Function):
            def count(self):
                return len(self.parents)
        """
    assert lint(snippet, path="src/repro/nn/autograd.py") == []
    assert _codes(lint(snippet, path="src/repro/nn/_ops/probe.py")) == [
        ("RPR012", 5)
    ]


# -- RPR004: mutable defaults ------------------------------------------------

def test_rpr004_mutable_defaults():
    findings = lint(
        """\
        def f(a, b=[]):
            pass

        def g(*, c={}):
            pass

        def h(d=set()):
            pass
        """
    )
    assert [c for c, _ in _codes(findings)] == ["RPR004"] * 3


def test_rpr004_immutable_defaults_pass():
    assert lint("def f(a=(), b=None, c=0, d='x'):\n    pass\n") == []


# -- RPR005: state_dict symmetry ---------------------------------------------

def test_rpr005_one_sided_override():
    findings = lint(
        """\
        class Dumper:
            def state_dict(self):
                return {}
        """
    )
    assert _codes(findings) == [("RPR005", 1)]
    assert "load_state_dict" in findings[0].message


def test_rpr005_both_sides_pass():
    assert lint(
        """\
        class Round:
            def state_dict(self):
                return {}

            def load_state_dict(self, state):
                pass
        """
    ) == []


# -- RPR006: parallelism outside repro.parallel ------------------------------

def test_rpr006_multiprocessing_import_flagged():
    findings = lint(
        """\
        import multiprocessing
        import multiprocessing.pool
        """
    )
    assert _codes(findings) == [("RPR006", 1), ("RPR006", 2)]


def test_rpr006_concurrent_futures_import_flagged():
    findings = lint(
        """\
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        from concurrent import futures
        """
    )
    assert _codes(findings) == [("RPR006", 1), ("RPR006", 2), ("RPR006", 3)]


def test_rpr006_unrelated_concurrent_import_passes():
    assert lint("from concurrent import interpreters\n") == []


def test_rpr006_sanctioned_inside_parallel_package():
    assert lint(
        "import multiprocessing\n",
        path="src/repro/parallel/prefetch.py",
    ) == []


def test_rpr006_worker_minting_rng_flagged():
    findings = lint(
        """\
        import numpy as np

        def _init_worker(seed):
            rng = np.random.default_rng(seed)
        """
    )
    assert _codes(findings) == [("RPR006", 4)]


def test_rpr006_worker_rng_via_helpers_passes():
    assert lint(
        """\
        from repro.nn.rng import derive_rng, ensure_rng

        def worker_main(seed, epoch, index):
            rng = derive_rng(seed, 2, epoch, index)
            fallback = ensure_rng(None)
        """
    ) == []


def test_rpr006_rng_outside_worker_functions_passes():
    assert lint(
        """\
        import numpy as np

        def build_loader(seed):
            return np.random.default_rng(seed)
        """
    ) == []


# -- noqa, select, parse failures --------------------------------------------

def test_noqa_with_code_suppresses():
    findings = lint(
        """\
        import numpy as np
        rng = np.random.default_rng()  # noqa: RPR001
        """
    )
    assert findings == []


def test_blanket_noqa_suppresses():
    assert lint("p.data = x  # noqa\n") == []


def test_noqa_with_other_code_does_not_suppress():
    findings = lint("p.data = x  # noqa: RPR001\n")
    assert _codes(findings) == [("RPR002", 1)]


def test_select_filters_rules():
    snippet = """\
    import numpy as np
    rng = np.random.default_rng()
    p.data = x
    """
    assert [c for c, _ in _codes(lint(snippet, select=["RPR002"]))] == [
        "RPR002"
    ]


def test_syntax_error_reports_rpr000():
    findings = lint_source("def broken(:\n", "bad.py")
    assert [f.code for f in findings] == ["RPR000"]


def test_noqa_multiple_codes_suppresses_each():
    findings = lint(
        """\
        import numpy as np

        def f(a=[]):
            return np.random.default_rng()  # noqa: RPR001, RPR004
        """
    )
    # RPR001 is on the noqa line; RPR004's finding is on line 3 and the
    # suppression does not reach it.
    assert _codes(findings) == [("RPR004", 3)]


def test_noqa_multiple_codes_same_line():
    findings = lint(
        "def f(a=[], rng=None):  # noqa: RPR004, RPR001\n"
        "    pass\n"
    )
    assert findings == []


def test_noqa_unknown_code_leaves_finding():
    findings = lint("p.data = x  # noqa: RPR999\n")
    assert _codes(findings) == [("RPR002", 1)]


def test_noqa_case_and_whitespace_insensitive():
    assert lint("p.data = x  # NOQA:  rpr002\n") == []


def test_blanket_noqa_on_clean_line_is_harmless():
    findings = lint(
        """\
        x = 1  # noqa
        p.data = x
        """
    )
    assert _codes(findings) == [("RPR002", 2)]


def test_select_intersects_with_noqa():
    snippet = """\
    import numpy as np
    rng = np.random.default_rng()  # noqa: RPR001
    p.data = x
    """
    # select narrows to RPR002; the noqa'd RPR001 stays suppressed either
    # way and must not resurface through --select.
    assert _codes(lint(snippet, select=["RPR001", "RPR002"])) == [
        ("RPR002", 3)
    ]
    assert _codes(lint(snippet, select=["RPR001"])) == []


def test_select_unknown_code_selects_nothing():
    assert lint("p.data = x\n", select=["RPR999"]) == []


# -- acceptance: re-introducing known bugs is caught -------------------------

def test_reintroduced_unseeded_dropout_fails(tmp_path):
    bad = tmp_path / "newmod.py"
    bad.write_text(
        "import numpy as np\n"
        "\n"
        "def dropout(a, p, training, rng=None):\n"
        "    rng = rng or np.random.default_rng()\n"
        "    return a\n"
    )
    assert main([str(tmp_path)]) == 1
    findings = lint_paths([str(tmp_path)])
    assert [(f.code, f.file, f.line) for f in findings] == [
        ("RPR001", str(bad), 4)
    ]


def test_reintroduced_raw_data_assignment_fails(tmp_path):
    bad = tmp_path / "ema.py"
    bad.write_text("def ema(p, q, m):\n    p.data = m * p.data\n")
    assert main([str(tmp_path)]) == 1
    findings = lint_paths([str(tmp_path)])
    assert [(f.code, f.file, f.line) for f in findings] == [
        ("RPR002", str(bad), 2)
    ]


def test_sanctioned_allowlist_applies_under_any_checkout_root(tmp_path):
    nested = tmp_path / "repro" / "nn" / "optim"
    nested.mkdir(parents=True)
    (nested / "custom.py").write_text("p.data = p.data - g\n")
    assert main([str(tmp_path)]) == 0


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("import numpy as np\n"
                                    "rng = np.random.default_rng(0)\n")
    assert main([str(tmp_path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("p.data = x\n")
    assert main([str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "RPR002"
    assert payload[0]["severity"] == "error"


def test_cli_github_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("p.data = x\n")
    assert main([str(tmp_path), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={bad},line=1,title=RPR002::" in out
    assert "1 error(s)" in out


def test_github_renderer_escapes_newlines():
    from repro.analysis import render_github
    from repro.analysis.findings import ERROR, Finding

    noisy = Finding("a.py", 3, "RPR001", ERROR, "line one\nline two, 100%")
    rendered = render_github([noisy])
    assert "line one%0Aline two, 100%25" in rendered.splitlines()[0]


# -- repo-wide self-lint -----------------------------------------------------

def test_src_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_every_rule_documented():
    assert sorted(RULES) == ["RPR001", "RPR002", "RPR004", "RPR005",
                             "RPR006", "RPR007", "RPR008", "RPR009",
                             "RPR010", "RPR011", "RPR012"]
