"""Synthetic datasets, splits, label-noise injection, unlabeled marking.

All operations are pure: they return a new Dataset and never mutate their
input. Verified-clean rows (meta and test splits) are never touched by any
injector. A run reads a Dataset only through its TrainView (`Dataset.view`),
which holds no masked label and no clean train label.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import typing

import numpy as np

from .nn import Mlp, mlp_logits, softmax

TRAIN, META, TEST = "train", "meta", "test"
SPLITS = (TRAIN, META, TEST)
_CODE = {tag: code for code, tag in enumerate(SPLITS)}  # a row's split code indexes SPLITS

DATASET_FORMAT_VERSION = 2


class DegenerateOracleError(ValueError):
    """The margin oracle produces (near-)uniform outputs everywhere."""


class Dataset:
    """Feature matrix plus clean/noisy labels, labeled mask and split.

    The split is held as `codes`, one int8 a row that indexes SPLITS
    (train 0, meta 1, test 2). The constructor takes the split as tags or
    as int8 codes: tags are checked at full length, so "trainee" is refused
    rather than cut to "train", and codes must lie in 0..2.

    Invariants (checked on construction): fewer than 2**31 rows, so an
    int32 holds any row position; meta and test rows keep y_noisy ==
    y_clean and are always labeled; unlabeled rows occur only in the train
    split; class indices lie in [0, n_classes).
    """

    def __init__(self, x, y_clean, y_noisy, labeled, split, n_classes: int,
                 provenance: dict | None = None):
        self.x = np.asarray(x, dtype=np.float64)
        self.y_clean = np.asarray(y_clean, dtype=np.int64)
        self.y_noisy = np.asarray(y_noisy, dtype=np.int64)
        self.labeled = np.asarray(labeled, dtype=bool)
        self.n_classes = n_classes
        self.provenance = {} if provenance is None else provenance
        if self.x.ndim != 2:
            raise ValueError("x must be a matrix")
        n = self.x.shape[0]
        if n >= 2**31:
            raise ValueError(f"{n} rows; a dataset holds fewer than 2**31")
        split = np.asarray(split)
        for name, a in (("y_clean", self.y_clean), ("y_noisy", self.y_noisy),
                        ("labeled", self.labeled), ("split", split)):
            if a.shape != (n,):
                raise ValueError(f"{name} length does not match x")
        self.codes = _split_codes(split)
        for y in (self.y_clean, self.y_noisy):
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError("class index out of range")
        clean_rows = self.codes != _CODE[TRAIN]
        if not np.array_equal(self.y_noisy[clean_rows], self.y_clean[clean_rows]):
            raise ValueError("meta/test rows must keep clean labels")
        if not np.all(self.labeled[clean_rows]):
            raise ValueError("unlabeled rows may occur only in the train split")

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dims(self) -> int:
        return self.x.shape[1]

    def indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return np.flatnonzero(self.codes == _CODE[split])

    def view(self) -> "TrainView":
        """What training may read of this dataset. A split's scored rows are
        its labeled ones, with their y_noisy: the noisy labels on train, the
        clean ones on meta and test, whose rows are all labeled and keep
        y_noisy == y_clean."""
        scored = {}
        for tag, code in _CODE.items():
            rows = np.flatnonzero((self.codes == code) & self.labeled).astype(np.int32)
            scored[tag] = (rows, self.y_noisy[rows])
        return TrainView(self.x, self.indices(TRAIN).astype(np.int32), scored, self.n_classes)


class TrainView(typing.NamedTuple):
    """The one part of a Dataset a run reads, built once per run: the
    features, the int32 positions of the train rows, and per split the int32
    positions of its scored rows with their labels. It holds no label of a
    masked row and no clean label of a train row."""

    x: np.ndarray
    train: np.ndarray
    scored: dict[str, tuple[np.ndarray, np.ndarray]]
    n_classes: int

    @property
    def dims(self) -> int:
        return self.x.shape[1]


def _split_codes(split: np.ndarray) -> np.ndarray:
    """The int8 split codes of an (N,) array of int8 codes or of tags."""
    if split.dtype == np.int8:
        if split.size and (split.min() < 0 or split.max() >= len(SPLITS)):
            raise ValueError(f"split codes must lie in 0..{len(SPLITS) - 1}")
        return split
    tags = split.astype(str, copy=False)
    codes = np.full(tags.shape, -1, dtype=np.int8)
    for tag, code in _CODE.items():
        codes[tags == tag] = code
    if np.any(codes < 0):
        raise ValueError("split tags must be train/meta/test")
    return codes


def _replace(ds: Dataset, **changes) -> Dataset:
    """A new Dataset: `ds` with the fields in `changes`. Its split passes
    on as codes, which are only range-checked."""
    fields = dict(x=ds.x, y_clean=ds.y_clean, y_noisy=ds.y_noisy, labeled=ds.labeled,
                  split=ds.codes, n_classes=ds.n_classes, provenance=ds.provenance)
    return Dataset(**{**fields, **changes})


# ---------------------------------------------------------------------------
# synthesis and splitting


def make_synthetic(n: int, classes: int, dims: int, seed: int,
                   center_scale: float = 3.0) -> Dataset:
    """Balanced Gaussian class blobs with unit isotropic covariance.

    Cluster centers sit on a scaled simplex (center_scale times the standard
    basis), so all class pairs are equidistant; larger center_scale means
    less overlap. Rows are shuffled; labels start clean (y_noisy == y_clean).
    """
    if classes < 2 or n < classes * 10:
        raise ValueError(f"degenerate counts: n={n}, classes={classes} (need n >= 10*classes)")
    if dims < classes:
        raise ValueError(f"need dims >= classes to place simplex centers ({dims} < {classes})")
    rng = np.random.default_rng(seed)
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    y = np.repeat(np.arange(classes), counts)
    centers = np.zeros((classes, dims))
    centers[np.arange(classes), np.arange(classes)] = center_scale
    x = centers[y] + rng.standard_normal((n, dims))
    order = rng.permutation(n)
    x, y = x[order], y[order]
    return Dataset(
        x=x, y_clean=y, y_noisy=y.copy(),
        labeled=np.ones(n, dtype=bool),
        split=np.full(n, _CODE[TRAIN], dtype=np.int8),
        n_classes=classes,
        provenance={"synthetic": {"n": n, "classes": classes, "dims": dims,
                                  "seed": seed, "center_scale": center_scale}},
    )


def _largest_remainder(total: int, fracs: list[float]) -> list[int]:
    raw = [f * total for f in fracs]
    base = [math.floor(r) for r in raw]
    short = total - sum(base)
    remainders = sorted(range(len(fracs)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in remainders[:short]:
        base[i] += 1
    return base


def split_dataset(ds: Dataset, train_frac: float, meta_frac: float,
                  test_frac: float, seed: int) -> Dataset:
    """Class-stratified assignment of train/meta/test tags.

    Per-class sizes follow largest-remainder rounding of the fractions, so
    balanced data yields exact global split sizes. Meta and test rows keep
    clean labels permanently; splitting resets y_noisy to the clean labels
    and clears any unlabeled marks (noise is injected after splitting).
    """
    fracs = (train_frac, meta_frac, test_frac)
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be non-negative and sum to 1, got {fracs}")
    rng = np.random.default_rng(seed)
    codes = np.empty(ds.n, dtype=np.int8)
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.y_clean == c)
        rng.shuffle(idx)
        n_train, n_meta, n_test = _largest_remainder(idx.size, list(fracs))
        codes[idx[:n_train]] = _CODE[TRAIN]
        codes[idx[n_train:n_train + n_meta]] = _CODE[META]
        codes[idx[n_train + n_meta:]] = _CODE[TEST]
    return _replace(ds, split=codes, y_noisy=ds.y_clean.copy(),
                    labeled=np.ones(ds.n, dtype=bool))


# ---------------------------------------------------------------------------
# noise injection


def inject_uniform(ds: Dataset, ratio: float, seed: int) -> Dataset:
    """Flip each train label with probability `ratio` to a uniformly random
    other class. Meta/test rows are untouched."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must be in [0, 1], got {ratio}")
    rng = np.random.default_rng(seed)
    train_idx = ds.indices(TRAIN)
    y_noisy = ds.y_clean.copy()
    flip = rng.random(train_idx.size) < ratio
    offsets = rng.integers(1, ds.n_classes, size=train_idx.size)
    rows = train_idx[flip]
    y_noisy[rows] = (ds.y_clean[rows] + offsets[flip]) % ds.n_classes
    prov = dict(ds.provenance)
    prov["noise"] = {"kind": "uniform", "ratio": ratio, "seed": seed}
    return _replace(ds, y_noisy=y_noisy, provenance=prov)


def margins(oracle: Mlp, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row confidence margin (top softmax prob minus runner-up) and the
    runner-up class under the oracle."""
    probs = softmax(mlp_logits(oracle.layers, x))
    order = np.argsort(-probs, axis=1, kind="stable")
    top, runner = order[:, 0], order[:, 1]
    rows = np.arange(x.shape[0])
    return probs[rows, top] - probs[rows, runner], runner


def inject_feature_dependent(ds: Dataset, ratio: float, oracle: Mlp,
                             seed: int) -> Dataset:
    """Flip the ceil(ratio * n_train) train rows with the smallest oracle
    margin to the oracle's runner-up class for that row.

    Rank-based: the flipped set is exactly the lowest-margin quota, ties in
    margin broken by the seed. Mimics annotator confusion near decision
    boundaries. Raises DegenerateOracleError for an untrained oracle.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must be in [0, 1], got {ratio}")
    train_idx = ds.indices(TRAIN)
    margin, runner = margins(oracle, ds.x[train_idx])
    if margin.max(initial=0.0) < 1e-8:
        raise DegenerateOracleError("oracle margins are uniformly ~0; train it first")
    y_noisy = ds.y_clean.copy()
    k = math.ceil(ratio * train_idx.size)
    if k > 0:
        rng = np.random.default_rng(seed)
        tiebreak = rng.permutation(train_idx.size)
        order = np.lexsort((tiebreak, margin))
        chosen = order[:k]
        y_noisy[train_idx[chosen]] = runner[chosen]
    prov = dict(ds.provenance)
    prov["noise"] = {"kind": "feature-dependent", "ratio": ratio, "seed": seed}
    return _replace(ds, y_noisy=y_noisy, provenance=prov)


def mark_unlabeled(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Mask a uniform random fraction of train rows as unlabeled.

    Their y_noisy stays stored (for serialization) but is left out of the
    dataset's TrainView, so no run reads it.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"unlabeled fraction must be in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_idx = ds.indices(TRAIN)
    k = int(round(fraction * train_idx.size))
    masked = rng.choice(train_idx, size=k, replace=False)
    labeled = np.ones(ds.n, dtype=bool)
    labeled[masked] = False
    prov = dict(ds.provenance)
    prov["unlabeled"] = {"fraction": fraction, "seed": seed}
    return _replace(ds, labeled=labeled, provenance=prov)


# ---------------------------------------------------------------------------
# persistence: one file, a JSON header line, then each array as an .npy 1.0
# record (NumPy's own format, NEP 1): bit-exact, read without parsing


@contextlib.contextmanager
def replaced_atomically(path: str):
    """A binary handle on a new, uniquely named file beside `path` that is
    renamed over `path` when the block ends; on any failure it is removed
    and `path` is left as it was."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def replace_text(path: str, text: str) -> None:
    """`text` as the UTF-8 content of `path`, through `replaced_atomically`."""
    with replaced_atomically(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path: str, what: str):
    """The JSON value in file `path`. A file that is missing, cannot be read
    (a directory, no permission) or is not JSON in UTF-8 raises a
    ValueError that names it as `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ValueError(f"{what} not found: {path}") from e
    except OSError as e:
        raise ValueError(f"{what} {path} cannot be read: {e.strerror}") from e
    except ValueError as e:
        raise ValueError(f"{what} {path} is not valid JSON: {e}") from e


def _records(n: int, d: int) -> list[tuple[str, np.dtype, tuple]]:
    """Name, dtype and shape of each array a dataset file holds, in file order."""
    return [("x", np.dtype(np.float64), (n, d)), ("y_clean", np.dtype(np.int64), (n,)),
            ("y_noisy", np.dtype(np.int64), (n,)), ("labeled", np.dtype(bool), (n,)),
            ("codes", np.dtype(np.int8), (n,))]


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the header line, then each array of `_records` as a C-order
    .npy 1.0 record, into a temporary file that then replaces `path`."""
    if ds.dims == 0:  # a file load_dataset refuses
        raise ValueError("a dataset file needs at least one feature column")
    header = {
        "version": DATASET_FORMAT_VERSION,
        "n": ds.n,
        "d": ds.dims,
        "c": ds.n_classes,
        "provenance": ds.provenance,
    }
    with replaced_atomically(path) as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name, _, _ in _records(ds.n, ds.dims):
            np.lib.format.write_array(fh, np.ascontiguousarray(getattr(ds, name)),
                                      version=(1, 0), allow_pickle=False)


def _header_sizes(header) -> tuple[int, int, int]:
    """The n, d and c of a header line of this version, each an int (a bool
    is not one), n at least 0 and d and c at least 1, beside a provenance
    object."""
    version = header.get("version") if isinstance(header, dict) else None
    if version == 1 and type(version) is int:
        raise ValueError("dataset file version 1 is no longer read; "
                         "regenerate the file with `metalabel gen-data`")
    if version != DATASET_FORMAT_VERSION or type(version) is not int:
        raise ValueError(f"unsupported dataset file version {version!r}")
    for key, low in (("n", 0), ("d", 1), ("c", 1)):
        value = header[key]
        if type(value) is not int:
            raise ValueError(f"the header's {key} must be an int, got {value!r}")
        if value < low:
            raise ValueError(f"the header's {key} must be at least {low}, got {value}")
    if not isinstance(header["provenance"], dict):
        raise ValueError(f"the header's provenance must be an object, "
                         f"got {header['provenance']!r}")
    return header["n"], header["d"], header["c"]


def _describe(shape: tuple, fortran: bool, dtype: np.dtype) -> str:
    return f"{dtype} {shape}" + (" in Fortran order" if fortran else "")


def _read_records(fh, n: int, d: int) -> list[np.ndarray]:
    """The arrays of `_records` from `fh`, placed after the header line.
    Each record must be .npy 1.0 with the dtype and shape that n and d
    imply, in C order; its bytes must be there before its array is made;
    and no byte may follow the last."""
    size = os.fstat(fh.fileno()).st_size
    arrays = []
    for name, dtype, shape in _records(n, d):
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError(f"record {name} is not an .npy 1.0 record")
        found = np.lib.format.read_array_header_1_0(fh)
        if found != (shape, False, dtype):
            raise ValueError(f"record {name} holds {_describe(*found)}, "
                             f"the header implies {_describe(shape, False, dtype)}")
        count, left = math.prod(shape), size - fh.tell()
        if count * dtype.itemsize > left:
            raise ValueError(f"record {name} needs {count * dtype.itemsize} bytes, "
                             f"the file has {left} left")
        a = np.fromfile(fh, dtype=dtype, count=count)
        a.shape = shape  # in place, so it keeps owning its data
        arrays.append(a)
    if fh.tell() != size:
        raise ValueError(f"trailing bytes after the last record ({size - fh.tell()})")
    return arrays


def load_dataset(path: str) -> Dataset:
    """Read a file written by save_dataset. Every way the file can be
    missing, malformed or unreadable raises a ValueError whose message
    starts with the path."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n, d, c = _header_sizes(header)
            x, y_clean, y_noisy, labeled, codes = _read_records(fh, n, d)
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise ValueError(f"row {i}: x_{j} = {x[i, j]} is not a finite number")
        return Dataset(x=x, y_clean=y_clean, y_noisy=y_noisy, labeled=labeled, split=codes,
                       n_classes=c, provenance=header["provenance"])
    except KeyError as e:
        raise ValueError(f"{path}: the header has no {e} field") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from e
