"""Dense tensor kernels with hand-written forward/backward passes.

Only the pieces the two segmenter architectures need: 1-D convolution,
batch normalization, leaky ReLU, dropout, a bidirectional LSTM layer,
fully-connected layers, softmax cross-entropy and the Adam optimizer.
Misuse (wrong shapes, labels out of range, non-finite gradients) raises
ValueError.
"""

from .adam import AdamState, NonFiniteGradientError, adam_step, init_adam
from .layers import BatchNorm1d, Conv1d, Dropout, Layer, LeakyReLU, Linear, Sequential
from .loss import softmax_cross_entropy, softmax_probs
from .lstm import BiLSTM

__all__ = [
    "AdamState", "NonFiniteGradientError", "adam_step", "init_adam",
    "BatchNorm1d", "Conv1d", "Dropout", "Layer", "LeakyReLU", "Linear", "Sequential",
    "softmax_cross_entropy", "softmax_probs", "BiLSTM",
]
