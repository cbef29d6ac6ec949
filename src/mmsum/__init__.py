"""Joint extractive text and video-frame summarization over articles,
precomputed frame features, and transcripts: hierarchical recurrent encoders,
cross-modal alignment, four fusion strategies, and a dual-stream training
objective (cross entropy + reinforcement rewards)."""

import os
import sys

# BLAS on one thread unless the caller set it, so that the worker thread has
# the second core; the ``autodiff`` module docstring states the contract.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS if var not in os.environ})

from .config import RunConfig, resolve_config
from .data import (DatasetManifest, Document, Sample, SynthConfig, Transcript,
                   load_dataset, load_manifest, read_feature_file, split_dataset,
                   subsample_frames, synth_generate, write_feature_file)
from .evaluation import (cos_image_similarity, evaluate_dataset, overlap_report,
                         rouge_l, rouge_n, summarize)
from .model import SummarizerModel, build_parameters
from .training import (Adagrad, EarlyStopping, bistream_loss, ce_loss,
                       gradient_check, greedy_labels, reward_div, reward_rep,
                       train_model, video_loss)

__version__ = "0.1.0"

__all__ = [
    "Adagrad", "DatasetManifest", "Document", "EarlyStopping", "RunConfig",
    "Sample", "SummarizerModel", "SynthConfig", "Transcript", "bistream_loss",
    "build_parameters", "ce_loss", "cos_image_similarity", "evaluate_dataset",
    "gradient_check", "greedy_labels", "load_dataset", "load_manifest",
    "overlap_report", "read_feature_file", "resolve_config", "reward_div",
    "reward_rep", "rouge_l", "rouge_n", "split_dataset", "subsample_frames",
    "summarize", "synth_generate", "train_model", "video_loss",
    "write_feature_file",
]
