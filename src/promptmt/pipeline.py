"""End-to-end experiment on the synthetic task.

Runs the whole chain in one process: generate the task, learn a joint
BPE and vocabulary, pretrain on plain parallel data, continue training
on knowledge-prompted data, then decode the held-out test set twice,
once with prompts and once with the knowledge stripped, and score both.
The prompted/unprompted contrast on the same checkpoint is the point:
ambiguous terms are undecidable from the source alone, so the gap is
attributable to the prompts.

Every stage is seeded from one RunConfig seed; two runs with the same
configuration produce identical reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .corpus import Vocab, bpe_encode_sequence, train_bpe, write_tokenized
from .errors import write_json
from .metrics import evaluate
from .model import (
    ModelConfig,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .decode import BeamConfig, batch_translate
from .prompt import KnowledgeBundle, build_dataset, save_dataset, strip_knowledge
from .retrieval import TmIndex, check_threshold, save_tm
from .synth import SynthConfig, generate
from .terminology import save_dictionary

KNOWLEDGE_KINDS = ("term", "sent")
# share of the training pairs held out for validation
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on.

    knowledge picks which prompt blocks are built ("term", "sent", or
    both); templates stay out of the synthetic task, whose sentences are
    deliberately flat. The task is generated with seed, like every other
    stage; synth.seed is not read.
    """

    synth: SynthConfig = field(default_factory=SynthConfig)
    knowledge: tuple = KNOWLEDGE_KINDS
    threshold: float = 0.4
    bpe_merges: int = 300

    d_model: int = 48
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 192
    dropout: float = 0.1
    max_positions: int = 96

    lr: float = 1e-3
    batch_size: int = 32
    stage1_epochs: int = 15
    stage2_epochs: int = 40
    patience: int = 30
    warmup_steps: int = 0
    schedule: str = "constant"
    # stage 2 continues on prompted data alone; mixing the plain stage-1
    # data back in preserves more unprompted quality at the cost of a
    # much weaker incentive to read the prompts
    mix_plain: bool = False

    beam_size: int = 4
    max_new_tokens: int = 24
    length_penalty: float = 1.0
    seed: int = 0

    def __post_init__(self):
        bad = [k for k in self.knowledge if k not in KNOWLEDGE_KINDS]
        if bad:
            raise ValueError(f"unknown knowledge kinds {bad}, pick from {KNOWLEDGE_KINDS}")
        # the epochs are checked here so an error names them, not max_epochs
        for name in ("bpe_merges", "stage1_epochs", "stage2_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_threshold(self.threshold)
        # the configs the run builds check their own values; building them
        # here, the vocabulary size a placeholder, rejects a bad value
        # before anything is written
        self.model_config(vocab_size=1)
        self.train_config(self.stage1_epochs, self.seed)
        self.beam_config()

    def model_config(self, vocab_size: int) -> ModelConfig:
        return config_from(ModelConfig, self, vocab_size=vocab_size)

    def train_config(self, epochs: int, seed: int) -> TrainConfig:
        return config_from(TrainConfig, self, max_epochs=epochs, seed=seed)

    def beam_config(self) -> BeamConfig:
        return config_from(BeamConfig, self)


def config_from(cls, source, **overrides):
    """A `cls` dataclass filled from the same-named attributes of source.

    source is any object (a RunConfig, an argparse namespace); fields it
    lacks or holds as None keep their defaults and keyword overrides win.
    """
    values = {f.name: v for f in fields(cls) if (v := getattr(source, f.name, None)) is not None}
    return cls(**{**values, **overrides})


def build_bundles(pairs, dictionary, tm, cfg: RunConfig, *, templates=None,
                  source_only=False) -> list:
    """One KnowledgeBundle per pair from the enabled knowledge kinds.

    Term entries come from matching both sides, so the bundle carries the
    rendering the reference actually uses; source_only matches the source
    alone, for inference data whose targets are not references. The
    similar sentence is the best fuzzy TM hit above the threshold, if any.
    templates, aligned with pairs, holds one label sequence per pair as
    template.build_templates returns them (None: no parse); a template
    becomes the same labels on both sides.
    """
    if templates is None:
        templates = [None] * len(pairs)
    bundles = []
    for pair, labels in zip(pairs, templates, strict=True):
        terms = ()
        similar = None
        if "term" in cfg.knowledge and dictionary is not None:
            matched = (
                dictionary.match_source_only(pair.source)
                if source_only
                else dictionary.match(pair.source, pair.target)
            )
            terms = tuple((e.source, e.target) for e in matched)
        if "sent" in cfg.knowledge and tm is not None:
            hit = tm.retrieve_best(pair.source, cfg.threshold)
            if hit is not None:
                similar = (hit.src, hit.tgt)
        template = None if labels is None else (tuple(labels), tuple(labels))
        bundles.append(KnowledgeBundle(similar=similar, terms=terms, template=template))
    return bundles


def _split_train_val(pairs):
    n_val = max(1, int(len(pairs) * VAL_FRACTION))
    return pairs[:-n_val], pairs[-n_val:]


def write_task(out: Path, splits: dict, dictionary, tm_entries) -> None:
    """Make out and write a task there: each {name: pairs} split as
    name.src and name.tgt, the dictionary as dict.jsonl, the TM as tm.jsonl."""
    out.mkdir(parents=True, exist_ok=True)
    for name, pairs in splits.items():
        write_tokenized([p.source for p in pairs], out / f"{name}.src")
        write_tokenized([p.target for p in pairs], out / f"{name}.tgt")
    save_dictionary(dictionary, out / "dict.jsonl")
    save_tm(tm_entries, out / "tm.jsonl")


def run_pipeline(cfg: RunConfig, work_dir, log=None) -> dict:
    """Execute the experiment; returns {"prompted", "unprompted", "stats"}:
    the two conditions' EvalReports and the prompted decode's stats.

    Intermediate artifacts (corpora, BPE merges, vocabulary, datasets,
    checkpoint, hypotheses, reports) are written under work_dir.
    """
    say = log if log is not None else lambda msg: None
    work = Path(work_dir)

    synth_cfg = replace(cfg.synth, seed=cfg.seed)
    all_train, test, dictionary, tm_entries = generate(synth_cfg)
    train_pairs, val_pairs = _split_train_val(all_train)
    say(f"task: {len(train_pairs)} train / {len(val_pairs)} val / {len(test)} test, "
        f"{len(dictionary)} dictionary entries, {len(tm_entries)} TM entries")

    write_task(work, {"train": train_pairs, "val": val_pairs, "test": test},
               dictionary, tm_entries)

    lines = [list(p.source) for p in all_train] + [list(p.target) for p in all_train]
    bpe = train_bpe(lines, num_merges=cfg.bpe_merges)
    bpe.save(work / "bpe.txt")

    def units(tokens):
        return bpe_encode_sequence(bpe, tokens)

    seen = []
    for pair in all_train:
        seen += units(pair.source) + units(pair.target)
    for entry in dictionary.entries:
        seen += units(entry.source) + units(entry.target)
    for _, src, tgt in tm_entries:
        seen += units(src) + units(tgt)
    vocab = Vocab.build(seen)
    vocab.save(work / "vocab.txt")
    say(f"bpe: {len(bpe.merges)} merges, vocabulary {len(vocab)}")

    # every dataset is assembled against the model's positions before any
    # training, so a pair that cannot fit stops the run before it starts;
    # the retrieval pool for training-time prompts is the whole parallel
    # corpus, and a pair's own perfect match is ignored by the index
    train_tm = TmIndex([(p.id, p.source, p.target) for p in all_train])
    bundles = build_bundles(all_train, dictionary, train_tm, cfg)
    test_bundles = build_bundles(test, dictionary, TmIndex(tm_entries), cfg)
    n_hits = sum(1 for b in bundles if b.similar is not None)
    say(f"knowledge: {n_hits}/{len(bundles)} pairs with a fuzzy match above {cfg.threshold}")
    options = dict(bpe=bpe, max_positions=cfg.max_positions)
    prompted_train, prompted_val = _split_train_val(build_dataset(all_train, bundles, **options))
    prompted_test = build_dataset(test, test_bundles, include_target=False, **options)
    plain_train, plain_val, plain_test = (
        [strip_knowledge(ex) for ex in examples]
        for examples in (prompted_train, prompted_val, prompted_test)
    )
    save_dataset(prompted_train, work / "train.prompted.jsonl")
    save_dataset(prompted_test, work / "test.prompted.jsonl")
    save_dataset(plain_test, work / "test.plain.jsonl")

    model_cfg = cfg.model_config(len(vocab))
    params = init_params(model_cfg, seed=cfg.seed + 1)
    say(f"stage 1: plain parallel data, {cfg.stage1_epochs} epochs")
    result = train(params, model_cfg, plain_train, plain_val,
                   cfg.train_config(cfg.stage1_epochs, cfg.seed + 2), vocab, log=log)

    stage2_train = prompted_train + plain_train if cfg.mix_plain else prompted_train
    stage2_val = prompted_val + plain_val if cfg.mix_plain else prompted_val
    say(f"stage 2: {len(stage2_train)} prompted examples, {cfg.stage2_epochs} epochs")
    result = train(result.params, model_cfg, stage2_train, stage2_val,
                   cfg.train_config(cfg.stage2_epochs, cfg.seed + 3), vocab, log=log)

    save_checkpoint(work / "model.ckpt", result.params, model_cfg, vocab)
    params, model_cfg = load_checkpoint(work / "model.ckpt", vocab)

    beam = cfg.beam_config()
    say(f"decoding {len(test)} sentences, beam {beam.beam_size}")
    refs = [list(p.target) for p in test]
    term_sets = [
        [list(e.target) for e in dictionary.match(p.source, p.target)] for p in test
    ]
    reports, stats = {}, {}
    for name, key, examples in (("prompted", "prompted", prompted_test),
                                ("plain", "unprompted", plain_test)):
        hyp, stats[name] = batch_translate(params, model_cfg, vocab, examples, beam, bpe=bpe)
        write_tokenized(hyp, work / f"hyp.{name}.txt")
        write_json(work / f"stats.{name}.json", stats[name])
        reports[key] = evaluate(hyp, refs, term_sets)
        write_json(work / f"report.{name}.json", asdict(reports[key]))
        say(f"{key}:\n" + reports[key].render())
    return {**reports, "stats": stats["prompted"]}
