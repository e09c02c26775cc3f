"""Trainable accuracy surrogate: genome featurization, a from-scratch
transformer-encoder regressor with hand-written gradients, training and
replay fine-tuning loops, a synthetic labelling oracle, and a flat MLP
baseline for ranking comparisons."""
from .features import FIELD_ORDER, FieldNormalizer, featurize, raw_tokens
from .encoder import EncoderConfig, EncoderSurrogate
from .oracle import make_synthetic_corpus, synth_oracle
from .training import (
    LabeledCorpus,
    TrainHistory,
    fine_tune,
    parse_corpus_row,
    replay_counts,
    save_corpus,
    split_corpus,
    train,
)
from .baseline import MlpBaseline, train_mlp

__all__ = [
    "FIELD_ORDER",
    "FieldNormalizer",
    "featurize",
    "raw_tokens",
    "EncoderConfig",
    "EncoderSurrogate",
    "synth_oracle",
    "make_synthetic_corpus",
    "LabeledCorpus",
    "TrainHistory",
    "train",
    "fine_tune",
    "replay_counts",
    "split_corpus",
    "parse_corpus_row",
    "save_corpus",
    "MlpBaseline",
    "train_mlp",
]
