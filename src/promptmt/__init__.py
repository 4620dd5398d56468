"""Knowledge-prompted neural machine translation toolkit.

Similar sentence pairs, terminology entries, and sentence templates are
serialized as token prefixes on both sides of a seq2seq model: knowledge
blocks prepend the encoder input, and at decode time their target-side
rendering is forced as a decoder prefix the model continues from. The
subpackages cover the whole chain: corpus and subword handling, fuzzy
TM retrieval, terminology matching, template extraction, prompt
assembly, a numpy transformer with training loop, prefix-forced beam
search, evaluation, and a synthetic disambiguation task that ties it
all together.

The package exports the names the README and the demos use; everything
else is imported from its module (``promptmt.pipeline.build_bundles``,
``promptmt.errors.read_jsonl``, ...).
"""

from .corpus import (
    BpeModel,
    SentencePair,
    Vocab,
    bpe_decode_sequence,
    bpe_encode_sequence,
    train_bpe,
)
from .decode import BeamConfig, beam_search, decoder_logits, greedy_decode, translate
from .errors import DataError
from .model import ModelConfig, TrainConfig, init_params, train
from .pipeline import RunConfig, run_pipeline
from .prompt import KnowledgeBundle, assemble, strip_knowledge
from .retrieval import TmIndex, similarity
from .synth import SynthConfig
from .template import extract_template, parse_ptb
from .terminology import TermDictionary, TermEntry

__all__ = [
    "BeamConfig",
    "BpeModel",
    "DataError",
    "KnowledgeBundle",
    "ModelConfig",
    "RunConfig",
    "SentencePair",
    "SynthConfig",
    "TermDictionary",
    "TermEntry",
    "TmIndex",
    "TrainConfig",
    "Vocab",
    "assemble",
    "beam_search",
    "bpe_decode_sequence",
    "bpe_encode_sequence",
    "decoder_logits",
    "extract_template",
    "greedy_decode",
    "init_params",
    "parse_ptb",
    "run_pipeline",
    "similarity",
    "strip_knowledge",
    "train",
    "train_bpe",
    "translate",
]

__version__ = "0.1.0"
