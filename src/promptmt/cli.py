"""Command-line interface.

Every stage of the toolkit is a subcommand over the documented file
formats, so a whole experiment can be scripted as a sequence of plain
shell steps, or run in one shot with `pipeline`. Exit codes: 0 on
success, 1 on usage errors, 2 on data errors (missing or malformed
files).

The flags of `train`, `translate`, `synth` and `pipeline` are the fields
of their config dataclasses, built from them with the dataclass defaults.
The `pipeline` subcommand also accepts a config file of `key = value`
lines (# comments and blank lines ignored) holding RunConfig or
task-generator fields; flags given on the command line win over the
file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from .corpus import BpeModel, Vocab, load_parallel, load_tokenized, train_bpe, write_tokenized
from .decode import BeamConfig, batch_translate
from .errors import DataError, read_text, write_json
from .metrics import evaluate
from .model import (
    ModelConfig,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .pipeline import (RunConfig, _split_train_val, build_bundles, config_from, run_pipeline,
                       write_task)
from .prompt import build_dataset, load_dataset, save_dataset, strip_knowledge
from .retrieval import hit_record, load_tm, save_hits, save_tm
from .synth import SynthConfig, generate
from .template import DEFAULT_DEPTH, build_templates, check_yield, load_trees
from .terminology import load_dictionary, load_matches, save_matches


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --------------------------------------------------------------------------
# subcommands


def cmd_bpe_train(args) -> int:
    lines = []
    for path in args.corpus:
        lines += load_tokenized(path)
    model = train_bpe(lines, num_merges=args.merges)
    model.save(args.out)
    print(f"learned {len(model.merges)} merges -> {args.out}")
    return 0


def cmd_build_tm(args) -> int:
    pairs = load_parallel(args.src, args.tgt)
    entries = [(p.id, list(p.source), list(p.target)) for p in pairs]
    save_tm(entries, args.out)
    print(f"wrote {len(entries)} TM entries -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    index = load_tm(args.tm)
    queries = load_tokenized(args.query)
    hits = [index.retrieve_best(q, args.threshold) for q in queries]
    if args.out:
        save_hits(hits, args.out)
    else:
        for hit in hits:
            print(json.dumps(hit_record(hit), ensure_ascii=False))
    n = sum(1 for h in hits if h is not None)
    print(f"{n}/{len(hits)} queries above {args.threshold}", file=sys.stderr)
    return 0


def cmd_match_terms(args) -> int:
    dictionary = load_dictionary(args.dict)
    sources = load_tokenized(args.src)
    if args.tgt:
        targets = load_tokenized(args.tgt)
        if len(targets) != len(sources):
            raise DataError(
                f"{args.src}: {len(sources)} sentences but {args.tgt}: {len(targets)}"
            )
        matches = [
            (i, dictionary.match(s, t))
            for i, (s, t) in enumerate(zip(sources, targets))
        ]
    else:
        matches = [(i, dictionary.match_source_only(s)) for i, s in enumerate(sources)]
    save_matches(matches, args.out)
    n = sum(len(m) for _, m in matches)
    print(f"{n} term matches over {len(matches)} sentences -> {args.out}")
    return 0


def cmd_extract_templates(args) -> int:
    trees = load_trees(args.trees)
    templates = build_templates(trees, depth=args.depth)
    # a blank tree line (no parse) gives a blank template line
    write_tokenized([template or () for template in templates], args.out)
    print(f"wrote {len(templates)} templates -> {args.out}")
    return 0


def cmd_build_dataset(args) -> int:
    pairs = load_parallel(args.src, args.tgt)
    dictionary = load_dictionary(args.dict) if args.dict else None
    tm = load_tm(args.tm) if args.tm else None
    templates = None
    if args.trees:
        trees = load_trees(args.trees)
        if len(trees) != len(pairs):
            raise DataError(f"{args.trees}: {len(trees)} trees but {len(pairs)} sentence pairs")
        for lineno, (tree, pair) in enumerate(zip(trees, pairs), 1):
            check_yield(tree, pair.source, f"{args.trees}: line {lineno}")
        templates = build_templates(trees, depth=args.depth)
    bundles = build_bundles(
        pairs, dictionary, tm, RunConfig(threshold=args.threshold),
        templates=templates, source_only=args.inference,
    )

    bpe = BpeModel.load(args.bpe) if args.bpe else None
    examples = build_dataset(
        pairs,
        bundles,
        include_target=not args.inference,
        bpe=bpe,
        max_positions=args.max_positions,
    )
    save_dataset(examples, args.out)
    print(f"wrote {len(examples)} examples -> {args.out}")
    return 0


def cmd_train(args) -> int:
    # TrainConfig allows 0 epochs, but a run that trains nothing has no best epoch
    if args.max_epochs is not None and args.max_epochs < 1:
        raise ValueError(f"--epochs must be >= 1, got {args.max_epochs}")
    train_set = load_dataset(args.data)
    if args.val:
        val_set = load_dataset(args.val)
    else:
        train_set, val_set = _split_train_val(train_set)
    if not train_set:
        held_out = "" if args.val else " once a validation set is held out (give --val)"
        raise DataError(f"{args.data}: no training examples{held_out}")
    if not val_set:
        raise DataError(f"{args.val}: no validation examples")
    vocab = Vocab.load(args.vocab)
    model_cfg = config_from(ModelConfig, args, vocab_size=len(vocab))
    train_cfg = config_from(TrainConfig, args)
    if args.init:
        params, ckpt_cfg = load_checkpoint(args.init, vocab)
        if ckpt_cfg != model_cfg:
            raise DataError(f"{args.init}: checkpoint config differs from the requested one")
    else:
        params = init_params(model_cfg, seed=train_cfg.seed)
    set_names = (f"{args.data}: training set", f"{args.val or args.data}: validation set")
    result = train(params, model_cfg, train_set, val_set, train_cfg, vocab, log=print,
                   set_names=set_names)
    save_checkpoint(args.out, result.params, model_cfg, vocab)
    print(f"best epoch {result.best_epoch}, "
          f"val loss {min(result.val_losses):.4f} -> {args.out}")
    return 0


def cmd_translate(args) -> int:
    vocab = Vocab.load(args.vocab)
    params, model_cfg = load_checkpoint(args.ckpt, vocab)
    examples = load_dataset(args.data)
    if args.no_knowledge:
        examples = [strip_knowledge(ex) for ex in examples]
    bpe = BpeModel.load(args.bpe) if args.bpe else None
    beam = config_from(BeamConfig, args)
    outputs, stats = batch_translate(params, model_cfg, vocab, examples, beam, bpe=bpe)
    write_tokenized(outputs, args.out)
    if args.stats:
        write_json(args.stats, stats)
    print(f"{len(outputs)} sentences -> {args.out} "
          f"({stats['sentences_per_second']:.2f} sent/s)")
    return 0


def cmd_evaluate(args) -> int:
    hyps = load_tokenized(args.hyp)
    refs = load_tokenized(args.ref)
    if len(hyps) != len(refs):
        raise DataError(
            f"{args.hyp}: {len(hyps)} hypotheses but {args.ref}: {len(refs)} references"
        )
    if not hyps:
        raise DataError(f"{args.hyp}, {args.ref}: no sentences to score")
    term_sets = None
    if args.terms:
        matches = load_matches(args.terms)
        if len(matches) != len(hyps):
            raise DataError(f"{args.terms}: {len(matches)} records but {len(hyps)} hypotheses")
        term_sets = [[list(tgt) for _, tgt in terms] for _, terms in matches]
    report = evaluate(hyps, refs, term_sets, smooth=not args.no_smooth)
    if args.table:
        print(report.render())
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_synth(args) -> int:
    cfg = config_from(SynthConfig, args)
    out = Path(args.out)
    train_pairs, test_pairs, dictionary, tm_entries = generate(cfg)
    write_task(out, {"train": train_pairs, "test": test_pairs}, dictionary, tm_entries)
    print(f"{len(train_pairs)} train / {len(test_pairs)} test pairs, "
          f"{len(dictionary)} dictionary entries, {len(tm_entries)} TM entries -> {out}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _pipeline_config(args)
    work = Path(args.work)
    out = run_pipeline(cfg, work, log=print if args.verbose else None)
    print(json.dumps(out, indent=2, default=dataclasses.asdict))
    return 0


# --------------------------------------------------------------------------
# config flags and files

# the one flag not named after its field
_RENAMED = {"max_epochs": "epochs"}


def _items(raw: str) -> tuple:
    """A comma-separated list, blanks dropped: "term , sent," is ("term", "sent")."""
    return tuple(part for part in (p.strip() for p in raw.split(",")) if part)


def _bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("true", "1", "yes"):
        return True
    if word in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parsers(cls, skip=()) -> dict:
    """{field name: parser of the field's text form} for a config dataclass,
    used by both the flags and the config file."""
    hints = typing.get_type_hints(cls)
    return {f.name: {bool: _bool, tuple: _items}.get(hints[f.name], hints[f.name])
            for f in dataclasses.fields(cls) if f.name not in skip}


_RUN_FIELDS = _parsers(RunConfig, skip=("synth",))
# run_pipeline seeds the task from RunConfig.seed, so SynthConfig.seed is not read
_PIPELINE_SYNTH_SKIP = ("seed",)
_SYNTH_FIELDS = _parsers(SynthConfig, skip=_PIPELINE_SYNTH_SKIP)


def _add_config_flags(p, cls, skip=(), prefix="") -> None:
    """One flag per field of cls. Every flag defaults to None, which
    config_from skips, so each default is written only in its dataclass;
    a bool flag given bare means true."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name, parse in _parsers(cls, skip).items():
        default = defaults[name]
        shown = ",".join(default) if isinstance(default, tuple) else default
        p.add_argument("--" + (prefix + _RENAMED.get(name, name)).replace("_", "-"),
                       dest=prefix + name, type=parse, default=None,
                       help=f"default {shown}",
                       **({"nargs": "?", "const": True} if parse is _bool else {}))


def load_config_file(path) -> dict:
    """Read `key = value` lines into {key: parsed value}.

    Keys are RunConfig field names; task-generator fields may be written
    either bare (n_train) or prefixed (synth.n_train). Unknown keys are
    an error so typos cannot silently fall back to defaults.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    values = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        bare = key.removeprefix("synth.")
        if key in _RUN_FIELDS:
            name, parse = key, _RUN_FIELDS[key]
        elif bare in _SYNTH_FIELDS:
            name, parse = "synth." + bare, _SYNTH_FIELDS[bare]
        else:
            raise DataError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[name] = parse(raw)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: key {key!r}: {exc}") from exc
    return values


def _pipeline_config(args) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    # flags win over the config file
    for key in list(_RUN_FIELDS) + ["synth." + k for k in _SYNTH_FIELDS]:
        flag = getattr(args, key.replace(".", "_"))
        if flag is not None:
            values[key] = flag
    synth = {k.removeprefix("synth."): v for k, v in values.items() if k.startswith("synth.")}
    run = {k: v for k, v in values.items() if not k.startswith("synth.")}
    return RunConfig(synth=SynthConfig(**synth), **run)


# --------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="promptmt", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p = sub.add_parser("bpe-train", help="learn a BPE merge table from tokenized text")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE",
                   help="tokenized text files, one sentence per line")
    p.add_argument("--merges", type=int, default=RunConfig.bpe_merges)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bpe_train)

    p = sub.add_parser("build-tm", help="pack a parallel corpus into a translation memory")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_tm)

    p = sub.add_parser("retrieve", help="fuzzy-match queries against a translation memory")
    p.add_argument("--tm", required=True, help="translation memory JSONL")
    p.add_argument("--query", required=True, help="query sentences, tokenized text")
    p.add_argument("--lambda", dest="threshold", type=float, default=RunConfig.threshold,
                   help="similarity threshold (default %(default)s)")
    p.add_argument("--out", help="write JSONL hits here instead of stdout")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("match-terms", help="find dictionary terms in sentences")
    p.add_argument("--dict", required=True, help="terminology JSONL")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", help="when given, keep only entries whose target side matches too")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match_terms)

    p = sub.add_parser("extract-templates", help="truncate parse trees to template label sequences")
    p.add_argument("--trees", required=True, help="parse trees, one per line")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_templates)

    p = sub.add_parser("build-dataset", help="assemble prompted training or inference examples")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--dict", help="terminology JSONL for [Term] blocks")
    p.add_argument("--tm", help="translation memory JSONL for [Sentence] blocks")
    p.add_argument("--trees", help="parse trees for [Template] blocks, aligned with --src")
    p.add_argument("--lambda", dest="threshold", type=float, default=RunConfig.threshold)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--bpe", help="apply this merge table to text (not markers)")
    p.add_argument("--max-positions", type=int, default=ModelConfig.max_positions,
                   help="the model's position budget in units (default %(default)s); "
                   "knowledge blocks are dropped until both sides fit")
    p.add_argument("--inference", action="store_true",
                   help="no reference targets: source-only term matching, empty outputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a model on a prompted dataset")
    p.add_argument("--data", required=True, help="training examples JSONL")
    p.add_argument("--val", help="validation examples JSONL (default: tail 10%% of --data)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--init", help="warm-start from this checkpoint")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ModelConfig, skip=("vocab_size",))
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a dataset with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="inference examples JSONL")
    p.add_argument("--vocab", required=True)
    p.add_argument("--bpe", help="undo BPE on the output with this merge table")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="write decode statistics JSON here")
    p.add_argument("--no-knowledge", action="store_true",
                   help="strip knowledge blocks before decoding")
    _add_config_flags(p, BeamConfig)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--terms", help="per-sentence term matches JSONL for exact-match accuracy")
    p.add_argument("--no-smooth", action="store_true", help="raw n-gram precisions")
    p.add_argument("--table", action="store_true", help="plain-text table instead of JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate the synthetic disambiguation task")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="synth -> train -> translate -> evaluate in one run")
    p.add_argument("--work", default="runs/pipeline", help="artifact directory")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--verbose", action="store_true", help="log progress to stdout")
    _add_config_flags(p, RunConfig, skip=("synth",))
    _add_config_flags(p, SynthConfig, skip=_PIPELINE_SYNTH_SKIP, prefix="synth_")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid option values (bad dimensions, unknown schedule, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
