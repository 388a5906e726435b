import copy
import csv
import json
import math

import numpy as np
import pytest

import metalabel.data as data_mod
from metalabel.data import (
    Dataset,
    DegenerateOracleError,
    inject_feature_dependent,
    inject_uniform,
    load_dataset,
    make_synthetic,
    margins,
    mark_unlabeled,
    save_dataset,
    split_dataset,
)
from metalabel.nn import Mlp, one_hot


def snapshot(ds: Dataset):
    return (ds.x.copy(), ds.y_clean.copy(), ds.y_noisy.copy(),
            ds.labeled.copy(), ds.split.copy())


def assert_unchanged(ds: Dataset, snap):
    for a, b in zip((ds.x, ds.y_clean, ds.y_noisy, ds.labeled, ds.split), snap):
        assert np.array_equal(a, b)


def ideal_oracle(ds: Dataset, scale: float = 4.0) -> Mlp:
    """Single-layer net pointing at the class centers; confident and
    well-margined on blob data without any training."""
    w = np.zeros((ds.dims, ds.n_classes))
    for c in range(ds.n_classes):
        w[c, c] = scale
    return Mlp([(w, np.zeros((1, ds.n_classes)))])


@pytest.fixture()
def blobs():
    ds = make_synthetic(300, classes=3, dims=4, seed=5)
    return split_dataset(ds, 0.7, 0.15, 0.15, seed=6)


# -- synthesis ----------------------------------------------------------------


def test_make_synthetic_is_deterministic():
    a = make_synthetic(200, classes=4, dims=5, seed=42)
    b = make_synthetic(200, classes=4, dims=5, seed=42)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y_clean, b.y_clean)
    assert np.array_equal(a.split, b.split)


def test_make_synthetic_balanced_histogram():
    ds = make_synthetic(203, classes=4, dims=6, seed=0)
    counts = np.bincount(ds.y_clean, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 203


def test_make_synthetic_starts_clean_and_labeled():
    ds = make_synthetic(100, classes=2, dims=3, seed=1)
    assert np.array_equal(ds.y_noisy, ds.y_clean)
    assert ds.labeled.all()
    assert (ds.split == "train").all()


def test_make_synthetic_wide_separation_is_linearly_separable():
    ds = make_synthetic(400, classes=2, dims=3, seed=3, center_scale=20.0)
    x1 = np.hstack([ds.x, np.ones((ds.n, 1))])
    w, *_ = np.linalg.lstsq(x1, one_hot(ds.y_clean, 2), rcond=None)
    acc = float((np.argmax(x1 @ w, axis=1) == ds.y_clean).mean())
    assert acc >= 0.99


def test_make_synthetic_degenerate_counts():
    with pytest.raises(ValueError):
        make_synthetic(15, classes=2, dims=3, seed=0)  # n < 10 * classes
    with pytest.raises(ValueError):
        make_synthetic(100, classes=5, dims=3, seed=0)  # dims < classes


def test_split_exact_sizes_on_balanced_data():
    ds = make_synthetic(1000, classes=4, dims=6, seed=0)
    out = split_dataset(ds, 0.8, 0.1, 0.1, seed=1)
    sizes = {s: int((out.split == s).sum()) for s in ("train", "meta", "test")}
    assert sizes == {"train": 800, "meta": 100, "test": 100}


def test_split_is_deterministic():
    ds = make_synthetic(500, classes=3, dims=4, seed=2)
    a = split_dataset(ds, 0.6, 0.2, 0.2, seed=9)
    b = split_dataset(ds, 0.6, 0.2, 0.2, seed=9)
    assert np.array_equal(a.split, b.split)


def test_split_is_class_stratified():
    ds = make_synthetic(1000, classes=4, dims=5, seed=4)
    out = split_dataset(ds, 0.8, 0.1, 0.1, seed=5)
    for split, frac in (("train", 0.8), ("meta", 0.1), ("test", 0.1)):
        for c in range(4):
            got = int(((out.split == split) & (out.y_clean == c)).sum())
            want = frac * (out.y_clean == c).sum()
            assert abs(got - want) <= 2


def test_split_rejects_bad_fractions():
    ds = make_synthetic(100, classes=2, dims=3, seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, 0.8, 0.1, 0.2, seed=0)


# -- uniform noise ------------------------------------------------------------


def test_uniform_ratio_zero_is_identity(blobs):
    out = inject_uniform(blobs, 0.0, seed=1)
    assert np.array_equal(out.y_noisy, out.y_clean)


def test_uniform_ratio_one_flips_every_train_label(blobs):
    out = inject_uniform(blobs, 1.0, seed=2)
    train = out.split == "train"
    assert np.all(out.y_noisy[train] != out.y_clean[train])


def test_uniform_flip_count_within_binomial_bounds():
    ds = make_synthetic(5000, classes=4, dims=5, seed=10)
    ds = split_dataset(ds, 0.8, 0.1, 0.1, seed=11)
    out = inject_uniform(ds, 0.4, seed=12)
    train = out.split == "train"
    flips = int((out.y_noisy[train] != out.y_clean[train]).sum())
    n = int(train.sum())
    sigma = math.sqrt(n * 0.4 * 0.6)
    assert abs(flips - 0.4 * n) <= 3 * sigma


@pytest.mark.parametrize("ratio", [0.2, 0.4, 0.6, 0.8])
def test_uniform_flip_rate_converges(ratio):
    ds = make_synthetic(12500, classes=4, dims=5, seed=20)
    ds = split_dataset(ds, 0.8, 0.1, 0.1, seed=21)  # 10000 train rows
    out = inject_uniform(ds, ratio, seed=22)
    train = out.split == "train"
    assert train.sum() == 10000
    emp = float((out.y_noisy[train] != out.y_clean[train]).mean())
    assert abs(emp - ratio) < 0.02


def test_uniform_rejects_bad_ratio(blobs):
    with pytest.raises(ValueError):
        inject_uniform(blobs, 1.5, seed=0)


def test_uniform_leaves_meta_and_test_clean(blobs):
    out = inject_uniform(blobs, 0.9, seed=3)
    clean = out.split != "train"
    assert np.array_equal(out.y_noisy[clean], out.y_clean[clean])


def test_uniform_is_pure(blobs):
    snap = snapshot(blobs)
    inject_uniform(blobs, 0.5, seed=4)
    assert_unchanged(blobs, snap)


# -- feature-dependent noise ----------------------------------------------------


def test_feature_dependent_ratio_zero_is_identity(blobs):
    out = inject_feature_dependent(blobs, 0.0, ideal_oracle(blobs), seed=1)
    assert np.array_equal(out.y_noisy, out.y_clean)


def test_feature_dependent_flips_exactly_the_lowest_margin_quota(blobs):
    oracle = ideal_oracle(blobs)
    ratio = 0.3
    out = inject_feature_dependent(blobs, ratio, oracle, seed=7)
    train_idx = np.flatnonzero(blobs.split == "train")
    margin, runner = margins(oracle, blobs.x[train_idx])
    k = math.ceil(ratio * train_idx.size)
    changed = np.flatnonzero(out.y_noisy[train_idx] != blobs.y_clean[train_idx])
    expected = set(np.argsort(margin)[:k])
    # margins are generically distinct, so the quota is exactly the k smallest
    assert set(changed) <= expected
    reassigned = expected  # every quota row got the runner-up label
    for pos in reassigned:
        assert out.y_noisy[train_idx[pos]] == runner[pos]
    assert len(expected) == k


def test_feature_dependent_labels_are_the_runner_up_class(blobs):
    oracle = ideal_oracle(blobs)
    out = inject_feature_dependent(blobs, 0.5, oracle, seed=8)
    train_idx = np.flatnonzero(blobs.split == "train")
    margin, runner = margins(oracle, blobs.x[train_idx])
    k = math.ceil(0.5 * train_idx.size)
    quota = np.argsort(margin)[:k]
    assert np.array_equal(out.y_noisy[train_idx[quota]], runner[quota])


def test_feature_dependent_flipped_set_invariant_to_row_permutation(blobs):
    oracle = ideal_oracle(blobs)
    out = inject_feature_dependent(blobs, 0.4, oracle, seed=9)
    rng = np.random.default_rng(123)
    perm = rng.permutation(blobs.n)
    shuffled = Dataset(blobs.x[perm], blobs.y_clean[perm], blobs.y_noisy[perm],
                       blobs.labeled[perm], blobs.split[perm], blobs.n_classes)
    out_p = inject_feature_dependent(shuffled, 0.4, oracle, seed=9)
    flipped = set(np.flatnonzero(out.y_noisy != out.y_clean))
    flipped_p = {perm[i] for i in np.flatnonzero(out_p.y_noisy != out_p.y_clean)}
    assert flipped == flipped_p


def test_feature_dependent_rejects_degenerate_oracle(blobs):
    flat = Mlp([(np.zeros((blobs.dims, blobs.n_classes)), np.zeros((1, blobs.n_classes)))])
    with pytest.raises(DegenerateOracleError):
        inject_feature_dependent(blobs, 0.4, flat, seed=0)


def test_feature_dependent_leaves_meta_and_test_clean(blobs):
    out = inject_feature_dependent(blobs, 0.8, ideal_oracle(blobs), seed=10)
    clean = out.split != "train"
    assert np.array_equal(out.y_noisy[clean], out.y_clean[clean])


# -- unlabeled marking ----------------------------------------------------------


def test_mark_unlabeled_zero_fraction(blobs):
    out = mark_unlabeled(blobs, 0.0, seed=0)
    assert out.labeled.all()


def test_mark_unlabeled_exact_count():
    ds = make_synthetic(6250, classes=2, dims=3, seed=30)
    ds = split_dataset(ds, 0.8, 0.1, 0.1, seed=31)  # 5000 train
    out = mark_unlabeled(ds, 0.72, seed=32)
    assert int((~out.labeled).sum()) == 3600
    assert np.all(out.split[~out.labeled] == "train")


def test_a_view_holds_no_masked_row_and_no_clean_train_label(blobs):
    ds = mark_unlabeled(inject_uniform(blobs, 0.5, seed=1), 0.5, seed=2)
    view = ds.view()
    train = ds.indices("train")
    labeled = train[ds.labeled[train]]
    assert view.x is ds.x and (view.dims, view.n_classes) == (4, 3)
    assert view.train.dtype == np.int32 and np.array_equal(view.train, train)
    assert list(view.scored) == ["train", "meta", "test"]
    rows, y = view.scored["train"]
    assert rows.dtype == np.int32 and np.array_equal(rows, labeled)
    assert np.array_equal(y, ds.y_noisy[labeled]) and np.any(y != ds.y_clean[labeled])
    for split in ("meta", "test"):
        rows, y = view.scored[split]
        assert np.array_equal(rows, ds.indices(split))
        assert np.array_equal(y, ds.y_clean[rows])
    # what the view leaves out can be anything: a view of the poisoned copy is equal
    poisoned = copy.deepcopy(ds)
    rng = np.random.default_rng(3)
    poisoned.y_clean[train] = rng.integers(0, 3, train.size)
    masked = np.flatnonzero(~ds.labeled)
    poisoned.y_noisy[masked] = rng.integers(0, 3, masked.size)
    assert np.any(poisoned.y_clean != ds.y_clean) and np.any(poisoned.y_noisy != ds.y_noisy)
    other = poisoned.view()
    assert np.array_equal(other.train, view.train)
    for split in view.scored:
        assert all(np.array_equal(a, b) for a, b in zip(other.scored[split], view.scored[split]))


def test_indices_of_an_unknown_split_raises(blobs):
    with pytest.raises(ValueError, match="unknown split 'bogus'"):
        blobs.indices("bogus")


def test_dataset_invariants_enforced():
    ds = make_synthetic(100, classes=2, dims=3, seed=1)
    ds = split_dataset(ds, 0.8, 0.1, 0.1, seed=2)
    bad_noisy = ds.y_noisy.copy()
    bad_noisy[ds.indices("meta")[0]] = 1 - ds.y_clean[ds.indices("meta")[0]]
    with pytest.raises(ValueError):
        Dataset(ds.x, ds.y_clean, bad_noisy, ds.labeled, ds.split, 2)
    bad_mask = ds.labeled.copy()
    bad_mask[ds.indices("test")[0]] = False
    with pytest.raises(ValueError):
        Dataset(ds.x, ds.y_clean, ds.y_noisy, bad_mask, ds.split, 2)


@pytest.mark.parametrize("tag", ["trainee", "testing"])
def test_dataset_rejects_split_tags_before_narrowing(tag):
    # tags are validated at full length: "trainee" is not "train"
    ds = make_synthetic(100, classes=2, dims=3, seed=1)
    split = ds.split.astype(object)
    split[0] = tag
    with pytest.raises(ValueError, match="split tags"):
        Dataset(ds.x, ds.y_clean, ds.y_noisy, ds.labeled, split, 2)
    assert Dataset(ds.x, ds.y_clean, ds.y_noisy, ds.labeled,
                   ds.split.astype(object), 2).split.dtype == np.dtype("<U5")


@pytest.mark.parametrize("code", [3, -1])
def test_dataset_rejects_a_split_code_out_of_range(code):
    ds = make_synthetic(100, classes=2, dims=3, seed=1)
    codes = ds.codes.copy()
    codes[7] = code
    with pytest.raises(ValueError, match="split codes"):
        Dataset(ds.x, ds.y_clean, ds.y_noisy, ds.labeled, codes, 2)


def test_dataset_refuses_2_to_the_31_rows():
    # positions are held as int32; a broadcast row matrix takes no memory
    with pytest.raises(ValueError, match="2\\*\\*31"):
        Dataset(np.broadcast_to(0.0, (2**31, 1)), [], [], [], [], 2)


# -- persistence ----------------------------------------------------------------


def test_save_load_roundtrip_is_bit_exact(tmp_path, blobs):
    ds = inject_uniform(blobs, 0.37, seed=44)
    ds = mark_unlabeled(ds, 0.25, seed=45)
    path = tmp_path / "blob.dsv"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert np.array_equal(ds.x, back.x)
    assert np.array_equal(ds.y_clean, back.y_clean)
    assert np.array_equal(ds.y_noisy, back.y_noisy)
    assert np.array_equal(ds.labeled, back.labeled)
    assert np.array_equal(ds.split, back.split)
    assert ds.n_classes == back.n_classes
    assert ds.provenance == back.provenance


def test_save_is_idempotent_bytes(tmp_path, blobs):
    p1, p2 = tmp_path / "a.dsv", tmp_path / "b.dsv"
    save_dataset(blobs, str(p1))
    save_dataset(blobs, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_unknown_version(tmp_path, blobs):
    path = tmp_path / "x.dsv"
    save_dataset(blobs, str(path))
    text = path.read_text().splitlines()
    text[0] = text[0].replace('"version": 1', '"version": 99')
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        load_dataset(str(path))


def reference_bytes(ds: Dataset) -> bytes:
    """The file as the csv.writer-based writer formatted it: JSON header,
    column line, then repr(float(v)) per feature and ints for the rest."""
    header = {"version": 1, "n": ds.n, "d": ds.dims, "c": ds.n_classes,
              "provenance": ds.provenance}
    lines = [json.dumps(header, sort_keys=True) + "\n"]

    class Sink:
        def write(self, text):
            lines.append(text)

    writer = csv.writer(Sink(), lineterminator="\n")
    writer.writerow([f"x_{j}" for j in range(ds.dims)]
                    + ["y_clean", "y_noisy", "labeled", "split"])
    for i in range(ds.n):
        writer.writerow([repr(float(v)) for v in ds.x[i]]
                        + [str(int(ds.y_clean[i])), str(int(ds.y_noisy[i])),
                           str(int(ds.labeled[i])), str(ds.split[i])])
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_save_bytes_match_the_reference_formatting(tmp_path, n):
    # block edges: one row, one short of a block, exactly one, one over, two and one
    rng = np.random.default_rng(n)
    ds = Dataset(rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, (n, 3)),
                 rng.integers(0, 3, n), rng.integers(0, 3, n), rng.random(n) < 0.7,
                 np.full(n, "train"), 3, {"n": n})
    path = tmp_path / "d.dsv"
    save_dataset(ds, str(path))
    assert path.read_bytes() == reference_bytes(ds)


def extreme_dataset() -> Dataset:
    x = np.array([[5e-324, -5e-324, 2.2250738585072014e-308],
                  [1.7976931348623157e308, -1.7976931348623157e308, -0.0],
                  [1 / 3, 0.1, 1e16],
                  [0.0, -1.5e-310, 123456789.123456789]])
    return Dataset(x, [0, 1, 1, 0], [0, 1, 1, 0], [True, False, True, True],
                   ["train", "train", "meta", "test"], 2)


def sidecar(path):
    return path.parent / f".{path.name}.parsed"


LOAD_PATHS = pytest.mark.parametrize("keep_sidecar", [True, False],
                                     ids=["sidecar-kept", "sidecar-deleted"])


def save_for(path, ds, keep_sidecar):
    """Save ds, then leave its sidecar in place or delete it, so that the
    next load reads the arrays from the sidecar or parses the text."""
    save_dataset(ds, str(path))
    assert sidecar(path).is_file()
    if not keep_sidecar:
        sidecar(path).unlink()


@LOAD_PATHS
def test_round_trip_is_bit_exact_on_extreme_floats(tmp_path, keep_sidecar):
    ds = extreme_dataset()
    path = tmp_path / "e.dsv"
    save_for(path, ds, keep_sidecar)
    assert path.read_bytes() == reference_bytes(ds)
    back = load_dataset(str(path))
    assert np.array_equal(back.x.view(np.int64), ds.x.view(np.int64))  # -0.0 kept
    assert back.x.dtype == np.float64 and back.x.flags.c_contiguous
    for name in ("y_clean", "y_noisy", "labeled", "split"):
        assert getattr(back, name).dtype == getattr(ds, name).dtype
        assert np.array_equal(getattr(back, name), getattr(ds, name))


def test_one_row_file_loads_as_a_matrix(tmp_path):
    ds = Dataset(np.array([[1.5, -2.0, 3.25]]), [1], [1], [True], ["train"], 2)
    path = tmp_path / "one.dsv"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert back.x.shape == (1, 3) and back.n == 1
    assert np.array_equal(back.x, ds.x)


def test_save_refuses_a_dataset_without_features(tmp_path):
    ds = Dataset(np.zeros((3, 0)), [0, 1, 0], [0, 1, 0], [True] * 3, ["train"] * 3, 2)
    with pytest.raises(ValueError, match="feature column"):
        save_dataset(ds, str(tmp_path / "z.dsv"))
    assert not list(tmp_path.iterdir())


@LOAD_PATHS
def test_loaded_x_is_a_contiguous_float64_matrix(tmp_path, blobs, keep_sidecar):
    path = tmp_path / "b.dsv"
    save_for(path, blobs, keep_sidecar)
    back = load_dataset(str(path))
    assert back.x.dtype == np.float64
    assert back.x.flags.c_contiguous and back.x.flags.owndata
    assert back.x.shape == blobs.x.shape


def assert_same_arrays(a: Dataset, b: Dataset):
    assert np.array_equal(a.x.view(np.int64), b.x.view(np.int64))
    for name in ("y_clean", "y_noisy", "labeled", "split"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_a_parse_writes_the_sidecar_that_the_next_load_reads(tmp_path, blobs, monkeypatch):
    path = tmp_path / "b.dsv"
    save_for(path, blobs, keep_sidecar=False)
    parsed = load_dataset(str(path))
    assert sidecar(path).is_file()
    monkeypatch.setattr(np, "loadtxt", None)  # a second parse would fail
    assert_same_arrays(load_dataset(str(path)), parsed)
    assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar(path).name, "b.dsv"]


def test_a_sidecar_of_split_tags_is_parsed_again_and_rewritten(tmp_path, blobs,
                                                               monkeypatch):
    # a sidecar written when the split record held `<U5` tags: its digest
    # matches, but not its record's dtype, so the text is parsed and the
    # sidecar rewritten with int8 codes
    path = tmp_path / "b.dsv"
    ds = inject_uniform(blobs, 0.3, seed=1)
    save_dataset(ds, str(path))
    codes_sidecar = sidecar(path).read_bytes()
    line = codes_sidecar[:codes_sidecar.index(b"\n") + 1]
    with open(sidecar(path), "wb") as fh:
        fh.write(line)
        for a in (ds.x, ds.y_clean, ds.y_noisy, ds.labeled, ds.split):
            np.lib.format.write_array(fh, a, version=(1, 0), allow_pickle=False)
    parses, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
    back = load_dataset(str(path))
    assert parses == [1]
    assert_same_arrays(back, ds)
    assert sidecar(path).read_bytes() == codes_sidecar


def _truncate(path, other):
    data = sidecar(path).read_bytes()
    sidecar(path).write_bytes(data[:len(data) // 2])


def _foreign(path, other):
    sidecar(path).write_bytes(sidecar(other).read_bytes())


def _directory(path, other):
    sidecar(path).unlink()
    sidecar(path).mkdir()


@pytest.mark.parametrize("fault", [_truncate, _foreign, _directory],
                         ids=["truncated", "foreign", "directory"])
def test_a_faulty_sidecar_falls_back_to_the_text(tmp_path, blobs, fault):
    path, other = tmp_path / "b.dsv", tmp_path / "other.dsv"
    save_dataset(inject_uniform(blobs, 0.3, seed=1), str(path))
    save_dataset(inject_uniform(blobs, 0.3, seed=2), str(other))
    expected = load_dataset(str(path))
    fault(path, other)
    before = sorted(p.name for p in tmp_path.iterdir())
    for _ in range(2):  # the fallback's own sidecar, where it can write one
        assert_same_arrays(load_dataset(str(path)), expected)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert sidecar(path).is_dir() == (fault is _directory)


def test_a_save_that_fails_part_way_leaves_the_old_file(tmp_path, blobs, monkeypatch):
    path = tmp_path / "b.dsv"
    save_dataset(blobs, str(path))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    blocks, rows_text = [], data_mod._rows_text

    def failing(ds, a, b):
        blocks.append(a)
        if len(blocks) == 2:
            raise OSError(28, "No space left on device")
        return rows_text(ds, a, b)

    monkeypatch.setattr(data_mod, "SAVE_BLOCK_ROWS", 100)
    monkeypatch.setattr(data_mod, "_rows_text", failing)
    with pytest.raises(OSError):
        save_dataset(inject_uniform(blobs, 0.5, seed=3), str(path))
    assert len(blocks) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_load_rejects_a_long_split_tag(tmp_path, blobs):
    path = tmp_path / "t.dsv"
    save_dataset(blobs, str(path))
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.endswith(",train\n"))
    lines[row] = lines[row].replace(",train\n", ",trainee\n")
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="split tags") as err:
        load_dataset(str(path))
    assert str(err.value).startswith(str(path))

