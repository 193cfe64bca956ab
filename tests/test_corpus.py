from pathlib import Path

import pytest

from bookpred.corpus import (
    DuplicateBookIdError,
    Genre,
    LabelConflictError,
    MalformedRowError,
    ManifestError,
    SectionSpec,
    SuccessLabel,
    UnknownGenreError,
    derive_label,
    load_corpus,
    select_section,
    split_train_val,
)

HEADER = "book_id,genre,avg_rating,n_ratings,label,text_path\n"


def write_manifest(tmp_path: Path, rows: list[str]) -> Path:
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return manifest


class TestDeriveLabel:
    def test_boundary_is_inclusive(self):
        assert derive_label(3.5) is SuccessLabel.SUCCESSFUL

    def test_just_below_threshold(self):
        assert derive_label(3.499) is SuccessLabel.UNSUCCESSFUL

    def test_extremes(self):
        assert derive_label(5.0) is SuccessLabel.SUCCESSFUL
        assert derive_label(1.0) is SuccessLabel.UNSUCCESSFUL

    def test_out_of_range(self):
        for bad in (0.99, 5.01, -1.0, 6.0):
            with pytest.raises(ValueError):
                derive_label(bad)

    def test_monotone(self):
        ratings = [1.0 + 4.0 * i / 200 for i in range(201)]
        seen_successful = False
        for r in ratings:
            if derive_label(r) is SuccessLabel.SUCCESSFUL:
                seen_successful = True
            elif seen_successful:
                pytest.fail("label flipped back to Unsuccessful above the threshold")


class TestLoadCorpus:
    def test_three_valid_rows_in_order(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [
                "b1,Poetry,4.2,25,,books/b1.txt",
                "b2,Drama,2.0,11,,books/b2.txt",
                "b3,Fiction,,10,Successful,books/b3.txt",
            ],
        )
        corpus = load_corpus(manifest)
        assert [r.book_id for r in corpus] == ["b1", "b2", "b3"]
        assert corpus[0].label is SuccessLabel.SUCCESSFUL
        assert corpus[1].label is SuccessLabel.UNSUCCESSFUL
        assert corpus[2].label is SuccessLabel.SUCCESSFUL
        assert corpus[2].avg_rating is None
        assert corpus[0].text_path == tmp_path / "books/b1.txt"

    def test_rating_derives_label(self, tmp_path):
        manifest = write_manifest(tmp_path, ["b1,Poetry,4.2,10,,b1.txt"])
        assert load_corpus(manifest)[0].label is SuccessLabel.SUCCESSFUL

    def test_unknown_genre_names_row(self, tmp_path):
        manifest = write_manifest(tmp_path, ["b1,Western,4.2,10,,b1.txt"])
        with pytest.raises(UnknownGenreError, match="row 2.*Western"):
            load_corpus(manifest)

    def test_duplicate_book_id(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            ["b1,Poetry,4.2,10,,b1.txt", "b1,Drama,2.0,10,,b2.txt"],
        )
        with pytest.raises(DuplicateBookIdError, match="row 3"):
            load_corpus(manifest)

    def test_label_conflicting_with_rating(self, tmp_path):
        manifest = write_manifest(tmp_path, ["b1,Poetry,4.2,10,Unsuccessful,b1.txt"])
        with pytest.raises(LabelConflictError, match="row 2"):
            load_corpus(manifest)

    def test_both_rating_and_label_empty(self, tmp_path):
        manifest = write_manifest(tmp_path, ["b1,Poetry,,10,,b1.txt"])
        with pytest.raises(MalformedRowError, match="row 2"):
            load_corpus(manifest)

    def test_rating_out_of_range(self, tmp_path):
        manifest = write_manifest(tmp_path, ["b1,Poetry,5.5,10,,b1.txt"])
        with pytest.raises(MalformedRowError, match="row 2"):
            load_corpus(manifest)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            pytest.param(
                ["b1,Poetry,4.2,10,,b1.txt,extra"],
                MalformedRowError,
                "row 2: wrong number of fields",
                id="too-many-fields",
            ),
            pytest.param(
                ["b1,Poetry,4.2,10,b1.txt"],
                MalformedRowError,
                "row 2: wrong number of fields",
                id="too-few-fields",
            ),
            pytest.param(
                [" ,Poetry,4.2,10,,b1.txt"],
                MalformedRowError,
                "row 2: empty book_id",
                id="empty-book-id",
            ),
            pytest.param(
                ["b1,Poetry,4.2,10,,b1.txt", " b1 ,Drama,2.0,10,,b2.txt"],
                DuplicateBookIdError,
                "row 3: duplicate book_id 'b1'",
                id="duplicate-book-id",
            ),
            pytest.param(
                ["b1,Western,4.2,10,,b1.txt"],
                UnknownGenreError,
                "row 2: unknown genre 'Western'",
                id="unknown-genre",
            ),
            pytest.param(
                ["b1,Poetry, high ,10,,b1.txt"],
                MalformedRowError,
                "row 2: bad avg_rating 'high'",
                id="unparsable-avg-rating",
            ),
            pytest.param(
                ["b1,Poetry,5.5,10,,b1.txt"],
                MalformedRowError,
                "row 2: avg_rating 5.5 outside [1, 5]",
                id="avg-rating-out-of-range",
            ),
            pytest.param(
                ["b1,Poetry,nan,10,,b1.txt"],
                MalformedRowError,
                "row 2: avg_rating nan outside [1, 5]",
                id="avg-rating-nan",
            ),
            pytest.param(
                ["b1,Poetry,4.2,1.5,,b1.txt"],
                MalformedRowError,
                "row 2: bad n_ratings '1.5'",
                id="unparsable-n-ratings",
            ),
            pytest.param(
                ["b1,Poetry,4.2,-3,,b1.txt"],
                MalformedRowError,
                "row 2: negative n_ratings",
                id="negative-n-ratings",
            ),
            pytest.param(
                ["b1,Poetry,4.2,10,Great,b1.txt"],
                MalformedRowError,
                "row 2: unknown label 'Great'",
                id="unknown-label",
            ),
            pytest.param(
                ["b1,Poetry,4.20,10,Unsuccessful,b1.txt"],
                LabelConflictError,
                "row 2: label Unsuccessful conflicts with avg_rating 4.2",
                id="label-conflicts-with-rating",
            ),
            pytest.param(
                ["b1,Poetry,,10,,b1.txt"],
                MalformedRowError,
                "row 2: avg_rating and label are both empty",
                id="rating-and-label-empty",
            ),
            pytest.param(
                ["b1,Poetry,4.2,10,, "],
                MalformedRowError,
                "row 2: empty text_path",
                id="empty-text-path",
            ),
            pytest.param(
                ["b1,Western,high,-3,Great,"],
                UnknownGenreError,
                "row 2: unknown genre 'Western'",
                id="genre-reported-before-later-faults",
            ),
            pytest.param(
                ["b1,Poetry,high,-3,Great,"],
                MalformedRowError,
                "row 2: bad avg_rating 'high'",
                id="avg-rating-reported-before-later-faults",
            ),
            pytest.param(
                ["b1,Poetry,4.2,-3,Great,"],
                MalformedRowError,
                "row 2: negative n_ratings",
                id="n-ratings-reported-before-later-faults",
            ),
            pytest.param(
                ['b1,"Poetry\n",4.2,10,,b1.txt', "b2,Western,4.2,10,,b2.txt"],
                UnknownGenreError,
                "row 4: unknown genre 'Western'",
                id="row-after-quoted-newline",
            ),
            pytest.param(
                ["b1,Poetry,4.2,10,,b1.txt", "", "b2,Western,4.2,10,,b2.txt"],
                UnknownGenreError,
                "row 4: unknown genre 'Western'",
                id="row-after-blank-line",
            ),
        ],
    )
    def test_row_fault_class_and_message(self, tmp_path, rows, error, message):
        with pytest.raises(ManifestError) as excinfo:
            load_corpus(write_manifest(tmp_path, rows))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_absolute_text_path_is_kept(self, tmp_path):
        text = tmp_path / "elsewhere" / "b1.txt"
        manifest_dir = tmp_path / "manifests"
        manifest_dir.mkdir()
        corpus = load_corpus(write_manifest(manifest_dir, [f"b1,Poetry,4.2,10,,{text}"]))
        assert [r.text_path for r in corpus] == [text]

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,genre\nb1,Poetry\n", encoding="utf-8")
        with pytest.raises(MalformedRowError, match="header"):
            load_corpus(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.csv")

    def test_all_eight_genres_parse(self, tmp_path):
        rows = [
            f"b{i},{genre.value},4.0,10,,b{i}.txt" for i, genre in enumerate(Genre)
        ]
        corpus = load_corpus(write_manifest(tmp_path, rows))
        assert [r.genre for r in corpus] == list(Genre)


def corpus_of(tmp_path, n):
    rows = [f"b{i:03d},Poetry,4.0,10,,b{i:03d}.txt" for i in range(n)]
    return load_corpus(write_manifest(tmp_path, rows))


class TestSplitTrainVal:
    def test_sizes_and_determinism(self, tmp_path):
        corpus = corpus_of(tmp_path, 100)
        train1, val1 = split_train_val(corpus, 0.2, seed=7)
        train2, val2 = split_train_val(corpus, 0.2, seed=7)
        assert len(val1) == 20 and len(train1) == 80
        assert [r.book_id for r in train1] == [r.book_id for r in train2]
        assert [r.book_id for r in val1] == [r.book_id for r in val2]

    def test_disjoint_union(self, tmp_path):
        corpus = corpus_of(tmp_path, 37)
        for seed in range(5):
            train, val = split_train_val(corpus, 0.3, seed=seed)
            train_ids = {r.book_id for r in train}
            val_ids = {r.book_id for r in val}
            assert not train_ids & val_ids
            assert train_ids | val_ids == {r.book_id for r in corpus}

    def test_seed_sensitivity(self, tmp_path):
        corpus = corpus_of(tmp_path, 10)
        _, val1 = split_train_val(corpus, 0.2, seed=1)
        _, val2 = split_train_val(corpus, 0.2, seed=2)
        assert len(val1) == len(val2) == 2
        assert {r.book_id for r in val1} != {r.book_id for r in val2}

    def test_empty_side_is_error(self, tmp_path):
        corpus = corpus_of(tmp_path, 5)
        with pytest.raises(ValueError):
            split_train_val(corpus, 0.01, seed=0)
        with pytest.raises(ValueError):
            split_train_val(corpus, 0.99, seed=0)

    def test_too_small_corpus(self, tmp_path):
        corpus = corpus_of(tmp_path, 1)
        with pytest.raises(ValueError):
            split_train_val(corpus, 0.5, seed=0)

    def test_manifest_order_preserved_within_sides(self, tmp_path):
        corpus = corpus_of(tmp_path, 25)
        train, val = split_train_val(corpus, 0.2, seed=3)
        order = {r.book_id: i for i, r in enumerate(corpus)}
        for side in (train, val):
            positions = [order[r.book_id] for r in side]
            assert positions == sorted(positions)


class TestSectionSpec:
    def test_first_k(self):
        sentences = list(range(2000))
        assert select_section(sentences, SectionSpec("first", 1000)) == list(range(1000))

    def test_first_k_truncates(self):
        assert select_section(list(range(700)), SectionSpec("first", 1000)) == list(range(700))

    def test_last_k(self):
        assert select_section(list(range(2000)), SectionSpec("last", 1000)) == list(
            range(1000, 2000)
        )

    def test_full_is_identity(self):
        items = ["a", "b", "c"]
        assert select_section(items, SectionSpec("full")) == items

    def test_first_n_of_n_is_identity(self):
        items = list(range(50))
        assert select_section(items, SectionSpec("first", 50)) == items

    def test_empty_input(self):
        assert select_section([], SectionSpec("first", 10)) == []
        assert select_section([], SectionSpec("last", 10)) == []

    def test_parse_round_trip(self):
        for text in ("first:1000", "last:5", "full"):
            assert str(SectionSpec.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for bad in ("first", "first:0", "middle:3", "last:-2", ""):
            with pytest.raises(ValueError):
                SectionSpec.parse(bad)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SectionSpec("first", 0)
