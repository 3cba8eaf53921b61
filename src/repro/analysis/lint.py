"""AST-based invariant linter for repo-specific rules.

Run as ``python -m repro.analysis.lint src/`` (multiple paths accepted;
directories are walked recursively for ``*.py``).  Each rule has a
stable code so findings can be suppressed per line with
``# noqa: RPR001`` (or blanket ``# noqa``) and selected with
``--select``.

Rules and the invariant each one protects:

====== ==============================================================
RPR001 Global-RNG use: bare ``np.random.default_rng()`` (unseeded) or
       any legacy ``np.random.<fn>()`` call.  Library code must thread
       a managed :class:`numpy.random.Generator` or bit-exact
       checkpoint resume silently breaks.  Sanctioned:
       ``repro/nn/rng.py`` (the one place allowed to mint a fallback).
RPR002 Raw ``<expr>.data = ...`` assignment.  ``Parameter.data``
       reassignment outside the sanctioned optimizer/EMA/serialization
       modules bypasses the version counter and poisons ``QuantCache``
       with stale fake-quantized weights.
RPR004 Mutable default argument (list/dict/set literal, comprehension,
       or ``list()``/``dict()``/``set()`` call).
RPR005 A class defining ``state_dict`` without ``load_state_dict`` (or
       vice versa): checkpoints written by it cannot be read back, or
       the loader accepts keys the dumper never emits.
RPR006 Parallelism outside the parallel layer: importing
       ``multiprocessing``/``concurrent.futures`` anywhere but
       :mod:`repro.parallel`, or a worker entrypoint (any function whose
       name contains ``worker``) minting an RNG directly instead of
       going through ``repro.nn.rng`` (``ensure_rng``/``derive_rng``).
       Ad-hoc pools bypass the fork/thread fallback, crash isolation,
       and — above all — the order-independent seeding contract that
       keeps parallel batches byte-identical and resumable.
RPR007 ``QConv2d.from_float`` / ``QLinear.from_float`` called outside
       :mod:`repro.quant`.  Layer swapping must go through
       :func:`repro.quant.prepare`: hand-rolled swaps skip observer
       attachment and the skip-callback contract, producing models
       ``calibrate()`` and ``convert()`` reject.
RPR008 Direct tape execution outside the engine layer: calling
       ``<expr>.backward(...)``, referencing ``_topological_order``, or
       importing ``backward`` from :mod:`repro.nn.autograd` anywhere
       but :mod:`repro.nn` / :mod:`repro.engine`.  Training code must
       route through :func:`repro.engine.run_backward` so the tracing
       executor observes every step and plan replay stays the default
       step path; a raw ``.backward()`` call silently bypasses trace
       capture.
RPR009 Guarded attribute accessed without the owning class's lock: any
       attribute written under ``with self._lock:`` is *guarded*, and a
       public method touching it lock-free is a data race in waiting.
       Opt out per line with ``# noqa: RPR009`` or via a ``_lock_free``
       name suffix on the attribute or method.  (See
       :mod:`repro.analysis.concurrency`.)
RPR010 Lock-order hazards: cycles in the statically derived lock-order
       graph (aggregated across every linted file), re-acquiring a
       non-reentrant ``threading.Lock`` already held, and invoking a
       caller-supplied callable while holding a lock.
RPR011 Leaked threads/futures: ``threading.Thread(...)`` without
       ``daemon=`` or a ``join()`` in scope; ``except`` handlers around
       a ``set_result()`` producer that neither ``set_exception()`` nor
       re-raise, leaving waiters blocked forever on failure.
RPR012 A ``self.parents`` read inside a ``Function`` subclass (outside
       :mod:`repro.nn.autograd`, which defines it).  A compiled plan
       drops every ctx's ``parents``, so an op that counts or reads its
       inputs through them silently drops gradients under replay; count
       inputs with ``len(self.needs_input_grad)``.
====== ==============================================================
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import concurrency
from .concurrency import LockEdge
from .findings import (ERROR, Finding, exit_code, render_github,
                       render_json, render_text, sort_findings)

__all__ = ["RULES", "lint_source", "lint_file", "lint_paths", "main"]

#: code -> one-line description (the docstring table is the long form).
RULES: Dict[str, str] = {
    "RPR001": "global/unseeded numpy RNG use in library code",
    "RPR002": "raw .data assignment outside sanctioned modules",
    "RPR004": "mutable default argument",
    "RPR005": "state_dict without load_state_dict (or vice versa)",
    "RPR006": "ad-hoc parallelism outside repro.parallel / unmanaged "
              "worker RNG",
    "RPR007": "QConv2d/QLinear.from_float outside repro.quant; use "
              "prepare()",
    "RPR008": "direct tape execution outside repro.engine/repro.nn; use "
              "run_backward()",
    "RPR009": "guarded attribute accessed without the owning class's lock",
    "RPR010": "lock-order cycle / re-acquire / callback under a held lock",
    "RPR011": "thread without daemon= or join; future with an unset "
              "exception path",
    "RPR012": "self.parents read inside a Function subclass; replayed "
              "ops have none",
}

# Modules allowed to break a rule, matched as a path suffix (so the
# allowlist is independent of where the repo is checked out).  Paths
# are normalized to forward slashes before matching.
SANCTIONED: Dict[str, Tuple[str, ...]] = {
    # The single module allowed to mint a fallback generator.
    "RPR001": ("repro/nn/rng.py",),
    # Optimizers step parameters, EMA/queue updates rewrite them, and
    # serialization restores them — each bumps the version counter via
    # the Parameter.data setter, which is exactly the sanctioned path.
    "RPR002": (
        "repro/nn/tensor.py",  # defines Tensor.data in the first place
        "repro/nn/module.py",
        "repro/nn/serialization.py",
        "repro/nn/optim/",
        "repro/contrastive/byol.py",
        "repro/contrastive/moco.py",
        "repro/contrastive/perturb.py",
        # BN folding and convert() rewrite weights through the
        # Parameter.data setter on purpose (version bump included).
        "repro/quant/fold.py",
        "repro/quant/convert.py",
        # EMA codebook updates rewrite the codebook Parameter so registry
        # fingerprints observe each training step.
        "repro/retrieval/vq.py",
    ),
    # The parallel layer is the one place allowed to own pools/executors;
    # everything else must go through PrefetchLoader / SweepExecutor.
    "RPR006": ("repro/parallel/",),
    # The quant package is where from_float lives and is orchestrated.
    "RPR007": ("repro/quant/",),
    # The autograd core defines the tape, and the engine is the one
    # consumer allowed to drive it directly (trace capture + replay).
    # Tests exercise both layers on purpose.
    "RPR008": ("repro/nn/", "repro/engine/", "tests/"),
    # Function itself sets and documents ``parents``.
    "RPR012": ("repro/nn/autograd.py",),
}

# Module roots whose import anywhere else signals ad-hoc parallelism.
_PARALLEL_MODULES = ("multiprocessing", "concurrent.futures")

# np.random attributes that construct generator objects: calling them
# *with a seed* is fine; only a bare call is a global-RNG smell.
_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)


def _noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """line number -> suppressed codes (None means suppress everything)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = {
                c.strip().upper() for c in codes.split(",")
            }
    return suppressions


def _is_sanctioned(code: str, path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(part in normalized for part in SANCTIONED.get(code, ()))


class _RuleVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # numpy aliases in scope: {"np", "numpy"}; and direct names
        # bound to np.random functions via `from numpy.random import x`.
        self._numpy_aliases: Set[str] = set()
        self._numpy_random_aliases: Set[str] = set()
        self._random_imports: Dict[str, str] = {}  # local name -> fn
        self._function_stack: List[str] = []  # enclosing def names
        # Function subclasses defined so far in this file, and whether
        # each enclosing class is one.
        self._function_classes: Set[str] = set()
        self._class_stack: List[bool] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), code, ERROR,
                    message)
        )

    # -- import tracking ------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self._numpy_aliases.add(local)
            if alias.name == "numpy.random":
                self._numpy_random_aliases.add(alias.asname or "numpy")
            if self._is_parallel_module(alias.name):
                self._flag_parallel_import(node, alias.name)
        self.generic_visit(node)

    @staticmethod
    def _is_parallel_module(module: str) -> bool:
        return any(
            module == root or module.startswith(root + ".")
            for root in _PARALLEL_MODULES
        )

    def _flag_parallel_import(self, node: ast.AST, module: str) -> None:
        self._emit(
            node, "RPR006",
            f"import of {module} outside repro.parallel; pools belong "
            f"behind PrefetchLoader/SweepExecutor so the seeding "
            f"contract, fallback, and crash isolation hold",
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname or "random")
        if node.module == "numpy.random" and node.level == 0:
            for alias in node.names:
                self._random_imports[alias.asname or alias.name] = alias.name
        if node.module is not None and node.level == 0:
            if self._is_parallel_module(node.module):
                self._flag_parallel_import(node, node.module)
            elif node.module == "concurrent":
                for alias in node.names:
                    if alias.name == "futures":
                        self._flag_parallel_import(node, "concurrent.futures")
        for alias in node.names:
            if (
                node.module is not None
                and node.module.rsplit(".", 1)[-1] == "autograd"
                and alias.name in ("backward", "_topological_order")
            ):
                self._emit(
                    node, "RPR008",
                    f"import of autograd.{alias.name} outside the engine "
                    f"layer; drive the tape through "
                    f"repro.engine.run_backward so traced plans stay the "
                    f"default step path",
                )
        self.generic_visit(node)

    # -- call-based rules (RPR001, RPR006, RPR007, RPR008) ---------------

    def _np_random_fn(self, func: ast.expr) -> Optional[str]:
        """Return the np.random function name if ``func`` names one."""
        # np.random.<fn> / numpy.random.<fn>
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self._numpy_aliases
        ):
            return func.attr
        # random.<fn> after `from numpy import random` (or an alias of
        # `import numpy.random as nprand`)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._numpy_random_aliases
        ):
            return func.attr
        # bare <fn> after `from numpy.random import <fn>`
        if isinstance(func, ast.Name) and func.id in self._random_imports:
            return self._random_imports[func.id]
        return None

    def _in_worker_function(self) -> bool:
        """True inside a def whose name marks it as a pool worker."""
        return any("worker" in name.lower() for name in self._function_stack)

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._np_random_fn(node.func)
        if fn is not None:
            if fn in _RNG_CONSTRUCTORS and self._in_worker_function():
                self._emit(
                    node, "RPR006",
                    f"worker entrypoint mints np.random.{fn}(...) "
                    f"directly; derive worker RNGs via "
                    f"repro.nn.rng.derive_rng/ensure_rng so streams stay "
                    f"order-independent across worker counts",
                )
            if fn in _RNG_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    self._emit(
                        node, "RPR001",
                        f"unseeded np.random.{fn}() in library code; "
                        f"thread a managed generator (see "
                        f"repro.nn.rng.ensure_rng) so bit-exact resume "
                        f"holds",
                    )
            else:
                self._emit(
                    node, "RPR001",
                    f"np.random.{fn}() uses numpy's global RNG; thread "
                    f"a managed np.random.Generator instead",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_float"
        ):
            owner = node.func.value
            owner_name = None
            if isinstance(owner, ast.Name):
                owner_name = owner.id
            elif isinstance(owner, ast.Attribute):
                owner_name = owner.attr
            if owner_name in ("QConv2d", "QLinear"):
                self._emit(
                    node, "RPR007",
                    f"{owner_name}.from_float() outside repro.quant; "
                    f"swap layers via repro.quant.prepare() so observers "
                    f"and the skip contract are applied consistently",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "backward"
        ):
            self._emit(
                node, "RPR008",
                "direct .backward() call bypasses the tracing executor; "
                "use repro.engine.run_backward(loss) so the step can be "
                "captured into a replayable plan",
            )
        self.generic_visit(node)

    # -- RPR008 (tape internals outside the engine), RPR012 (parents) -----

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "parents"
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self._class_stack
            and self._class_stack[-1]
        ):
            self._emit(
                node, "RPR012",
                "Function subclass reads self.parents; a replayed ctx has "
                "none, so this op would drop gradients under plan replay "
                "— count inputs with len(self.needs_input_grad)",
            )
        if node.attr == "_topological_order":
            self._emit(
                node, "RPR008",
                "reference to autograd._topological_order outside the "
                "engine layer; the traversal order is an engine-internal "
                "contract — use repro.engine.run_backward or the Plan API",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "_topological_order":
            self._emit(
                node, "RPR008",
                "reference to _topological_order outside the engine "
                "layer; the traversal order is an engine-internal "
                "contract — use repro.engine.run_backward or the Plan API",
            )
        self.generic_visit(node)

    # -- RPR002: raw .data assignment -----------------------------------

    def _flag_data_targets(self, node: ast.AST,
                           targets: Sequence[ast.expr]) -> None:
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Attribute) and target.attr == "data":
                self._emit(
                    node, "RPR002",
                    "raw .data assignment bypasses the Parameter version "
                    "counter and poisons QuantCache; go through an "
                    "optimizer/EMA/serialization path or call "
                    "bump_version()",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._flag_data_targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_data_targets(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._flag_data_targets(node, [node.target])
        self.generic_visit(node)

    # -- RPR004: mutable default arguments ------------------------------

    _MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, self._MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._emit(
                    default, "RPR004",
                    f"mutable default argument in {node.name}(); the "
                    f"default is shared across calls — use None and "
                    f"create it inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    # -- RPR005: state_dict / load_state_dict symmetry ------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = {
            base.attr if isinstance(base, ast.Attribute) else
            getattr(base, "id", None)
            for base in node.bases
        }
        is_function = bool(bases & (self._function_classes | {"Function"}))
        if is_function:
            self._function_classes.add(node.name)
        defined = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_dump = "state_dict" in defined
        has_load = "load_state_dict" in defined
        if has_dump != has_load:
            present = "state_dict" if has_dump else "load_state_dict"
            missing = "load_state_dict" if has_dump else "state_dict"
            self._emit(
                node, "RPR005",
                f"class {node.name} defines {present} but not {missing}; "
                f"checkpoint round trips need both sides overridden "
                f"together",
            )
        self._class_stack.append(is_function)
        self.generic_visit(node)
        self._class_stack.pop()


def _line_suppresses(suppressions: Dict[int, Optional[Set[str]]],
                     line: int, code: str) -> bool:
    suppressed = suppressions.get(line, "absent")
    if suppressed is None:  # blanket `# noqa`
        return True
    return suppressed != "absent" and code in suppressed


def _collect(source: str, path: str,
             select: Optional[Sequence[str]] = None
             ) -> Tuple[List[Finding], List[LockEdge]]:
    """One file's filtered findings plus its surviving lock-order edges.

    Edges pass through the same ``select``/allowlist/``# noqa`` gates as
    RPR010 site findings (suppressing the acquisition line removes the
    edge, and with it any cycle it would close), so cross-file cycle
    detection honors per-line suppressions.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "RPR000", ERROR,
                        f"could not parse file: {exc.msg}")], []
    visitor = _RuleVisitor(path)
    visitor.visit(tree)
    conc_findings, edges = concurrency.analyze_tree(tree, path)
    suppressions = _noqa_map(source)
    selected = {c.upper() for c in select} if select else None
    findings = []
    for finding in visitor.findings + conc_findings:
        if selected is not None and finding.code not in selected:
            continue
        if _is_sanctioned(finding.code, path):
            continue
        if _line_suppresses(suppressions, finding.line, finding.code):
            continue
        findings.append(finding)
    if (selected is not None and "RPR010" not in selected) or \
            _is_sanctioned("RPR010", path):
        edges = []
    else:
        edges = [
            e for e in edges
            if not _line_suppresses(suppressions, e.line, "RPR010")
        ]
    return sort_findings(findings), edges


def lint_source(source: str, path: str,
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one source string; ``path`` is used for reporting/allowlists."""
    findings, edges = _collect(source, path, select=select)
    return sort_findings(findings + concurrency.cycle_findings(edges))


def lint_file(path: str,
              select: Optional[Sequence[str]] = None) -> List[Finding]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return [Finding(path, 0, "RPR000", ERROR,
                        f"could not read file: {exc}")]
    return lint_source(source, path, select=select)


def _collect_file(path: str,
                  select: Optional[Sequence[str]] = None
                  ) -> Tuple[List[Finding], List[LockEdge]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return [Finding(path, 0, "RPR000", ERROR,
                        f"could not read file: {exc}")], []
    return _collect(source, path, select=select)


def _iter_python_files(paths: Sequence[str]):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint files and directories (recursively); the public API.

    Lock-order edges (RPR010) are aggregated across every linted file
    before cycle detection, so an inversion whose two halves live in
    different modules is still reported.
    """
    findings: List[Finding] = []
    edges: List[LockEdge] = []
    for path in _iter_python_files(paths):
        file_findings, file_edges = _collect_file(path, select=select)
        findings.extend(file_findings)
        edges.extend(file_edges)
    return sort_findings(findings + concurrency.cycle_findings(edges))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-invariant linter (rules RPR001-RPR012; "
                    "suppress per line with '# noqa: RPRxxx').",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="'github' emits Actions workflow annotations")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to enable "
                             "(default: all)")
    args = parser.parse_args(argv)
    select = args.select.split(",") if args.select else None
    findings = lint_paths(args.paths, select=select)
    renderer = {"text": render_text, "json": render_json,
                "github": render_github}[args.format]
    print(renderer(findings))
    return exit_code(findings)


if __name__ == "__main__":
    sys.exit(main())
