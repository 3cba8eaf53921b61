"""Evaluation harnesses: the paper's four measurement protocols.

- :mod:`finetune` — semi-supervised fine-tuning (10% / 1% labels) at full
  precision or a fixed 4-bit precision (Tables 1, 4, 6, 7, 8).
- :mod:`linear_eval` — frozen-encoder linear probe (Tables 2, 5, 8).
- :mod:`detection` — YOLO-lite transfer to the synthetic detection task
  with AP / AP50 / AP75 (Table 3).
- :mod:`tsne` — from-scratch t-SNE embedding + separability score (Fig. 2).
"""

from .detection import DetectionModel, YoloLiteHead, evaluate_detection, train_detector
from .finetune import FinetuneResult, attach_classifier, finetune
from .knn import knn_classify, knn_evaluation
from .linear_eval import extract_features, linear_evaluation
from .metrics import accuracy
from .robustness import area_under_precision_curve, precision_sweep
from .tsne import linear_separability, tsne

__all__ = [
    "accuracy",
    "attach_classifier",
    "finetune",
    "FinetuneResult",
    "extract_features",
    "linear_evaluation",
    "knn_classify",
    "knn_evaluation",
    "YoloLiteHead",
    "DetectionModel",
    "train_detector",
    "evaluate_detection",
    "tsne",
    "linear_separability",
    "precision_sweep",
    "area_under_precision_curve",
]
