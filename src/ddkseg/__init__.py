"""ddkseg: raw-waveform segmentation of rapid syllable-repetition recordings.

The pipeline reads 16-bit PCM audio, classifies every millisecond as
burst (vot) / vowel / other with one of two small neural architectures,
converts the frames to segments, and derives syllable rates plus a full
segment-level evaluation suite. A synthetic trial generator provides
labeled data so everything can be trained and verified end to end.
"""

from .audio import MODEL_RATE_HZ, Waveform, WindowPlan, cut_windows, read_wav, resample, stitch_predictions, write_wav
from .augment import AugmentSpec, band_reject, mix_noise, synth_noise
from .metrics import (EvalReport, MatchedPairs, RateResult, SyllableCount, boundary_mad, ddk_rate,
                      ddk_rate_vot_only, duration_stats, evaluate_pairs, f1_scores, frame_accuracy,
                      match_segments, trim_outliers)
from .models import (FramePrediction, ModelConfig, Segmenter, load_checkpoint,
                     predict_file, predict_window, save_checkpoint)
from .postproc import (OTHER, VOT, VOWEL, Segment, apply_min_durations, group_frames, merge_vot_gaps,
                       postprocess, rasterize, read_segments_csv, write_segments_csv, write_textgrid)
from .synth import Trial, TrialSpec, generate_corpus, generate_trial, load_manifest
from .train import TrainConfig, TrainResult, train_model

__version__ = "0.1.0"
