"""Real-time acoustic echo cancellation with a deep complex network.

Modules:
    dsp        STFT analysis/synthesis and audio buffers
    autodiff   reverse-mode automatic differentiation on numpy arrays
    nn         complex convolution, LSTM and deep-filter kernels
    model      network assembly, weights, offline and streaming inference
    metrics    SI-SNR family, ERLE and mixture ratios
    scene      image-method room simulation and scene synthesis
    training   objective (the metrics' seg_sisnr on Vars), Adam, toy training
    gradcheck  finite-difference validation of every kernel
    weights_io binary weight-file reader/writer
    wavio      mono 16 kHz PCM16 WAV I/O
    cli        command-line entry points
"""

__version__ = "0.1.0"

from .dsp import RATE, AudioBuffer, ComplexSpec, StftConfig, istft, stft
from .metrics import erle, seg_sisnr, si_snr
from .model import (ModelConfig, StreamingSession, WeightStore, forward,
                    init_weights)
from .weights_io import load_weights, save_weights

__all__ = [
    "RATE", "AudioBuffer", "ComplexSpec", "StftConfig", "stft", "istft",
    "si_snr", "seg_sisnr", "erle",
    "ModelConfig", "WeightStore", "StreamingSession", "forward", "init_weights",
    "load_weights", "save_weights",
    "__version__",
]
