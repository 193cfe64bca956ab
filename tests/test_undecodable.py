"""A byte that is not UTF-8 in any text input names the file and the line
it is on, whichever reader meets it. Each input is valid but for one 0xFF
byte on line 650, past the first 8 KiB, so a reader that decodes in
chunks would name the chunk, not the byte."""

import shutil

import pytest

from bookpred import synth
from bookpred.cli import main
from bookpred.corpus import MANIFEST_COLUMNS, ManifestError, load_corpus
from bookpred.pipeline import STORE_NAME

BAD_LINE = 650
SMALL = ["--set", "epochs=1", "--set", "model.filters_per_window=2",
         "--set", "model.hidden_units=4", "--set", "batch_size=8", "--seed", "1"]


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A synth readability corpus and a checkpoint trained on its .semb files."""
    root = tmp_path_factory.mktemp("undecodable")
    synth.make_readability_corpus(root / "corpus", n_books=12, seed=5, embedding_dim=8,
                                  sentences_per_book=(10, 20))
    checkpoint = root / "model.bpmd"
    assert main(["train", "--manifest", str(root / "corpus" / "manifest.csv"),
                 "--out", str(checkpoint), "--semb-dir", str(root / "corpus" / "semb"),
                 *SMALL]) == 0
    return root


def run(capsys, *argv):
    """The CLI's error text for ``argv``, which must exit 1."""
    assert main([str(a) for a in argv]) == 1
    return capsys.readouterr().err


def put_bad_byte(path):
    """Put 0xFF at the start of line ``BAD_LINE`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    assert len(b"\n".join(lines[: BAD_LINE - 1])) > 8192
    lines[BAD_LINE - 1] = b"\xff" + lines[BAD_LINE - 1]
    path.write_bytes(b"\n".join(lines))


def long_book(corpus):
    """book0000's text, 700 lines of sentences."""
    path = corpus / "books" / "book0000.txt"
    path.write_text("".join(f"Line {i} holds one short sentence.\n" for i in range(700)),
                    encoding="utf-8")
    return path


def manifest_case(corpus, checkpoint, capsys):
    path = corpus / "long.csv"
    rows = "".join(f"b{i},Fiction,4.0,10,,b{i}.txt\n" for i in range(700))
    path.write_text(",".join(MANIFEST_COLUMNS) + "\n" + rows, encoding="utf-8")
    put_bad_byte(path)
    with pytest.raises(ManifestError) as info:
        load_corpus(path)
    return path, str(info.value)


def predictions_case(corpus, checkpoint, capsys):
    path = corpus / "preds.csv"
    rows = "".join(f"b{i},Successful,Unsuccessful,0.25\n" for i in range(700))
    path.write_text("book_id,gold,pred,p_successful\n" + rows, encoding="utf-8")
    put_bad_byte(path)
    return path, run(capsys, "mcnemar", path, path)


def config_case(corpus, checkpoint, capsys):
    path = corpus / "run.cfg"
    path.write_text("".join(f"# padding comment {i}\n" for i in range(700)) + "epochs=1\n",
                    encoding="utf-8")
    put_bad_byte(path)
    return path, run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
                     corpus / "m.bpmd", "--config", path)


def store_case(corpus, checkpoint, capsys):
    path = corpus / "semb" / STORE_NAME
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    pads = [f"pad{i}" + first[first.index(","):] for i in range(700)]
    path.write_text("".join([header, first, *rest, *pads]), encoding="utf-8")
    put_bad_byte(path)
    return path, run(capsys, "eval", "--checkpoint", checkpoint, "--manifest",
                     corpus / "manifest.csv", "--semb-dir", corpus / "semb")


def book_case(corpus, checkpoint, capsys):
    path = long_book(corpus)
    put_bad_byte(path)
    err = run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
              corpus / "m.bpmd", "--set", "encoder.dim=64", *SMALL)
    assert err.startswith(f"error: book book0000: {path}: line {BAD_LINE}: ")
    return path, err


def readability_case(corpus, checkpoint, capsys):
    path = long_book(corpus)
    put_bad_byte(path)
    return path, run(capsys, "readability", path)


CASES = [manifest_case, predictions_case, config_case, store_case, book_case,
         readability_case]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__.removesuffix("_case") for c in CASES])
def test_a_bad_byte_names_its_file_and_line(made, tmp_path, capsys, case):
    corpus = tmp_path / "corpus"
    shutil.copytree(made / "corpus", corpus)
    path, message = case(corpus, made / "model.bpmd", capsys)
    assert f"{path}: line {BAD_LINE}: cannot decode text as UTF-8 ('utf-8' codec" in message
