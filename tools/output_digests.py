"""Print a sha256 digest of every output the bookpred CLI writes on small
seeded inputs, so that two checkouts can be shown to give byte-identical
outputs.

    python tools/output_digests.py OUT_DIR > digests.txt

OUT_DIR must not exist yet. The tool builds seeded synthetic corpora in it,
plus a few hand-written texts that sit on the text rules (Unicode
separators, quoted abbreviations, a blank line with a carriage return, a
text without words), each with a seeded noise ``.semb`` file. It then runs
``bookpred.cli.main`` in-process, from the ``src/`` of the checkout it lives
in, for train (cnn at hashed dim 512, book2vec, a ``last:17`` section,
external ``.semb`` vectors at dim 64, and a ``--config`` file that sets a
key of every leaf type but a path), eval, attribute for both targets,
eval and attribute of the ``.semb`` model on its corpus plus the hand-written
texts with words, mcnemar of the dim-512 cnn against book2vec and against
``last:17``, featurize and export-vectors with the hashed and the ``.semb``
encoder, and readability. Each output file, and each
command's standard output, gets one ``sha256  name`` line; the absolute
OUT_DIR path is replaced by ``OUT_DIR`` first, so the digests do not depend
on where the tool ran. It exits 1, naming the file, if a ``*.tmp`` file
is left anywhere under OUT_DIR after the runs. To compare two checkouts,
run each one's copy of the tool into its own directory and ``diff`` the
two listings. It takes a few seconds on one core.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bookpred import cli, synth  # noqa: E402
from bookpred.embedding import write_embeddings  # noqa: E402
from bookpred.textstats import split_sentences  # noqa: E402

# Texts on the edges of the segmentation and counting rules. "nowords" has
# sentences but no word, so only the commands that need no readability
# score read it.
ODD_TEXTS = {
    "unicode": (
        "Straße und Café. Naïve rock’n’roll isn't well-known!\x1cZoë’s "
        "e.g. list: İstanbul, 日本語 and ÅSA. Done?! Yes.\x85Next line. "
        "Ends with (Mr. Smith) and “Dr. Who”."
    ),
    "abbreviations": (
        "\"Mr. Jones,\" said Mrs. Smith. 'E.G. this' and (i.e. that). St. Ives "
        "vs. Leeds etc. went on.\r\n\r\nA new paragraph. ST. MARY, DR. NO! "
        "G. Eliot and C. S. Lewis. Etc.\n \t\r\nLast one"
    ),
    "nowords": "... !!! ???\n\n— .",
}

# A --config file with a value of every leaf type but a path.
RUN_CFG = """# seeded small cnn
model.arch=cnn
epochs=3
batch_size=8
val_fraction=0.25
section=first:30
encoder.dim=64
encoder.seed=7
model.window_sizes=2,4
model.filters_per_window=4
model.hidden_units=8
model.dropout_p=0.5
model.use_readability=no
"""


def _write_manifest(path: Path, fieldnames: list[str], rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path


def build_inputs(out: Path) -> dict[str, Path]:
    """Seeded corpora and the manifests the runs read."""
    synth.make_token_corpus(out / "train", n_books=30, seed=11,
                            sentences_per_book=(40, 90), marker_rate=0.6)
    heldout = synth.make_token_corpus(out / "heldout", n_books=12, seed=12,
                                      sentences_per_book=(20, 60), marker_rate=0.6)
    semb = synth.make_readability_corpus(out / "semb", n_books=24, seed=13,
                                         embedding_dim=64, sentences_per_book=(20, 50))
    with open(heldout, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    with open(semb, encoding="utf-8", newline="") as fh:
        semb_rows = list(csv.DictReader(fh))
    rng = np.random.default_rng(14)
    odd_rows = []
    for i, (name, text) in enumerate(ODD_TEXTS.items()):
        path = out / "heldout" / "books" / f"{name}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        n_sentences = len(split_sentences(path.read_text(encoding="utf-8")))
        write_embeddings(rng.standard_normal((n_sentences, 64)),
                         out / "semb" / "semb" / f"{name}.semb")
        odd_rows.append({"book_id": name, "genre": "Poetry", "avg_rating": "",
                         "n_ratings": "", "label": ("Successful", "Unsuccessful")[i % 2],
                         "text_path": str(Path("books") / path.name)})
    (out / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    with_words = [r for r in odd_rows if r["book_id"] != "nowords"]
    semb_odd = [dict(r, text_path=str(Path("..", "heldout", r["text_path"]))) for r in with_words]
    return {
        "train": out / "train" / "manifest.csv",
        "eval": _write_manifest(out / "heldout" / "eval.csv", fields, rows + with_words),
        "all": _write_manifest(out / "heldout" / "all.csv", fields, rows + odd_rows),
        "semb": semb,
        "semb_odd": _write_manifest(out / "semb" / "odd.csv", fields, semb_rows + semb_odd),
        "semb_dir": out / "semb" / "semb",
        "odd": out / "heldout" / "books",
        "cfg": out / "run.cfg",
    }


def runs(inputs: dict[str, Path], runs_dir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in order; later runs read the
    checkpoints earlier ones write."""
    small = ["--set", "model.filters_per_window=4", "--set", "model.hidden_units=8",
             "--set", "batch_size=8"]
    hashed = ["--manifest", str(inputs["train"]), "--seed", "3"]
    trainings = {
        "cnn512": hashed + ["--set", "encoder.dim=512", "--set", "epochs=4", *small],
        "book2vec": hashed + ["--model", "book2vec", "--set", "encoder.dim=64",
                              "--set", "epochs=6", "--set", "batch_size=8"],
        "last17": hashed + ["--section", "last:17", "--set", "encoder.dim=64",
                            "--set", "epochs=4", *small],
        "semb64": ["--manifest", str(inputs["semb"]), "--seed", "5",
                   "--semb-dir", str(inputs["semb_dir"]), "--set", "epochs=4", *small],
        "cfg": hashed + ["--config", str(inputs["cfg"])],
    }
    commands = [
        (f"train_{model}", ["train", *argv, "--out", str(runs_dir / f"train_{model}.bpmd"),
                            "--history", str(runs_dir / f"train_{model}_history.csv")])
        for model, argv in trainings.items()
    ]
    for model in trainings:
        checkpoint = str(runs_dir / f"train_{model}.bpmd")
        if model == "semb64":
            data = ["--manifest", str(inputs["semb"]), "--semb-dir", str(inputs["semb_dir"])]
        else:
            data = ["--manifest", str(inputs["eval"])]
        commands.append((f"eval_{model}", ["eval", "--checkpoint", checkpoint, *data,
                                           "--out", str(runs_dir / f"eval_{model}.csv"),
                                           "--preds", str(runs_dir / f"preds_{model}.csv")]))
        if model in ("book2vec", "cfg"):
            continue  # neither model has a readability input
        for target in ("logit", "probability"):
            name = f"attribute_{model}_{target}"
            commands.append((name, ["attribute", "--checkpoint", checkpoint, *data,
                                    "--target", target, "--out", str(runs_dir / f"{name}.csv")]))
    semb_odd = ["--checkpoint", str(runs_dir / "train_semb64.bpmd"), "--manifest",
                str(inputs["semb_odd"]), "--semb-dir", str(inputs["semb_dir"])]
    commands += [
        ("eval_semb64_odd", ["eval", *semb_odd, "--out", str(runs_dir / "eval_semb64_odd.csv"),
                             "--preds", str(runs_dir / "preds_semb64_odd.csv")]),
        ("attribute_semb64_odd", ["attribute", *semb_odd,
                                  "--out", str(runs_dir / "attribute_semb64_odd.csv")]),
    ]
    for other in ("book2vec", "last17"):
        name = f"mcnemar_cnn512_{other}"
        commands.append((name, ["mcnemar", str(runs_dir / "preds_cnn512.csv"),
                                str(runs_dir / f"preds_{other}.csv"),
                                "--out", str(runs_dir / f"{name}.csv")]))
    commands += [
        ("featurize", ["featurize", "--manifest", str(inputs["all"]), "--jobs", "1",
                       "--out", str(runs_dir / "featurized"), "--set", "encoder.dim=64",
                       "--section", "first:40"]),
        ("featurize_semb", ["featurize", "--manifest", str(inputs["semb_odd"]),
                            "--out", str(runs_dir / "featurized_semb"),
                            "--set", f"encoder.directory={inputs['semb_dir']}"]),
        ("export_hashed", ["export-vectors", "--manifest", str(inputs["all"]),
                           "--out", str(runs_dir / "vectors_hashed.csv"),
                           "--set", "encoder.dim=128", "--section", "full"]),
        ("export_semb", ["export-vectors", "--manifest", str(inputs["semb"]),
                         "--semb-dir", str(inputs["semb_dir"]),
                         "--out", str(runs_dir / "vectors_semb.csv")]),
        ("readability", ["readability", *sorted(str(p) for p in inputs["odd"].glob("*.txt"))]),
    ]
    return commands


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists():
        print(f"error: {out} already exists", file=sys.stderr)
        return 2
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True)
    inputs = build_inputs(out / "inputs")
    for name, command in runs(inputs, runs_dir):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(command)
        if code != 0:
            print(f"error: {name} exited {code}: {stderr.getvalue().strip()}", file=sys.stderr)
            return 1
        (runs_dir / f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    for path in sorted(out.rglob("*.tmp")):  # a write that left its temp file is a failed run
        print(f"error: temp file left behind: {path}", file=sys.stderr)
        return 1
    for path in sorted(p for p in runs_dir.rglob("*") if p.is_file()):
        data = path.read_bytes().replace(str(out).encode("utf-8"), b"OUT_DIR")
        print(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(runs_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
