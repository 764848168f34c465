"""ddkseg: raw-waveform segmentation of rapid syllable-repetition recordings.

The pipeline reads 16-bit PCM audio, classifies every millisecond as
burst (vot) / vowel / other with one of two small neural architectures,
converts the frames to segments, and derives syllable rates plus a full
segment-level evaluation suite. A synthetic trial generator provides
labeled data so everything can be trained and verified end to end.
Import the submodules (ddkseg.audio, ddkseg.models, ddkseg.cli, ...);
the package itself exports only __version__.
"""

__version__ = "0.1.0"
