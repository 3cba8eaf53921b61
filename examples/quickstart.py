"""Quickstart: pretrain with Contrastive Quant, then fine-tune with 10% labels.

Runs in ~1 minute on a laptop CPU.

    python examples/quickstart.py
"""

import numpy as np

from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
from repro.data import (
    DataLoader,
    TwoViewTransform,
    make_cifar100_like,
    simclr_augmentations,
)
from repro.eval import finetune
from repro.models import resnet18
from repro.nn.optim import Adam


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. Data: a small procedurally generated image classification dataset
    #    (stands in for CIFAR-100; see DESIGN.md).
    data = make_cifar100_like(num_classes=8, image_size=12,
                              train_per_class=32, test_per_class=12)

    # 2. Model: a width-reduced ResNet-18 encoder + projection head.
    encoder = resnet18(width_multiplier=0.0625, rng=rng)
    model = SimCLRModel(encoder, projection_dim=16, rng=rng)

    # 3. Pre-train with Contrastive Quant (CQ-C pipeline, Eq. 9):
    #    each batch is encoded at two randomly sampled precisions and the
    #    loss enforces consistency across views AND across precisions.
    trainer = ContrastiveQuantTrainer(
        model,
        variant="C",
        precision_set="2-8",
        optimizer=Adam(list(model.parameters()), lr=2e-3),
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(
        data.train,
        batch_size=32,
        shuffle=True,
        drop_last=True,
        transform=TwoViewTransform(simclr_augmentations(1.0)),
        rng=np.random.default_rng(2),
    )
    print("pre-training with CQ-C ...")
    for epoch in range(8):
        loss = trainer.train_epoch(loader)
        print(f"  epoch {epoch + 1}: contrastive loss {loss:.3f}")
    trainer.finalize()  # restore full precision

    # 4. Fine-tune with only 10% of the labels (the paper's semi-supervised
    #    protocol) and report test accuracy.
    result = finetune(
        encoder, data.train, data.test,
        label_fraction=0.1, epochs=10, lr=0.02,
        rng=np.random.default_rng(3),
    )
    print(f"\nfine-tuned with 10% labels -> "
          f"test accuracy {result.test_accuracy_percent:.1f}%")

    # 5. The same encoder can also be deployed quantized: fine-tune again
    #    with the encoder fixed at 4-bit.
    from repro.quant import prepare

    encoder4 = resnet18(width_multiplier=0.0625,
                        rng=np.random.default_rng(0))
    encoder4.load_state_dict(encoder.state_dict())
    prepare(encoder4, observer="minmax")
    result4 = finetune(
        encoder4, data.train, data.test,
        label_fraction=0.1, precision=4, epochs=10, lr=0.02,
        rng=np.random.default_rng(3),
    )
    print(f"fine-tuned at 4-bit          -> "
          f"test accuracy {result4.test_accuracy_percent:.1f}%")


if __name__ == "__main__":
    main()
