"""Synthetic datasets, splits, label-noise injection, unlabeled marking.

All operations are pure: they return a new Dataset and never mutate their
input. Verified-clean rows (meta and test splits) are never touched by any
injector. A run reads a Dataset only through its TrainView (`Dataset.view`),
which holds no masked label and no clean train label.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import typing
import warnings

import numpy as np

from .nn import Mlp, mlp_logits, softmax

TRAIN, META, TEST = "train", "meta", "test"
SPLITS = (TRAIN, META, TEST)
_CODE = {tag: code for code, tag in enumerate(SPLITS)}  # a row's split code indexes SPLITS
_TAGS = np.array(SPLITS)

DATASET_FORMAT_VERSION = 1
SAVE_BLOCK_ROWS = 1024  # rows formatted per write; bounds the memory a save holds
HASH_CHUNK_BYTES = 1 << 20  # bytes hashed per read; bounds the memory a hash holds


class DegenerateOracleError(ValueError):
    """The margin oracle produces (near-)uniform outputs everywhere."""


class Dataset:
    """Feature matrix plus clean/noisy labels, labeled mask and split.

    The split is held as `codes`, one int8 a row that indexes SPLITS
    (train 0, meta 1, test 2). `split` reads it back as the (N,) `<U5` tag
    array, built from the codes on each read. The constructor takes the
    split as tags or as int8 codes: tags are checked at full length, so
    "trainee" is refused rather than cut to "train", and codes must lie in
    0..2.

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

    @property
    def split(self) -> np.ndarray:
        """The (N,) `<U5` split tags, built from the codes."""
        return _TAGS[self.codes]

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
# persistence: one file, JSON header line + CSV body, bit-exact floats, and a
# derived sidecar ".<file name>.parsed" beside it that holds the file's sha256
# and its validated arrays, so that each version of a file is parsed once


def _columns(d: int) -> list[str]:
    return [f"x_{j}" for j in range(d)] + ["y_clean", "y_noisy", "labeled", "split"]


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


def _sidecar_path(path: str) -> str:
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.parsed")


def _sidecar_records(n: int, d: int) -> list[tuple[str, np.dtype, tuple]]:
    """Name, dtype and shape of each array a sidecar holds, in file order."""
    return [("x", np.dtype(np.float64), (n, d)), ("y_clean", np.dtype(np.int64), (n,)),
            ("y_noisy", np.dtype(np.int64), (n,)), ("labeled", np.dtype(bool), (n,)),
            ("codes", np.dtype(np.int8), (n,))]


def _sha256_line(digest: str) -> bytes:
    return f"sha256 {digest}\n".encode("ascii")


def _write_sidecar(path: str, digest: str, ds: Dataset) -> None:
    """Store the arrays of `ds`, read from or written to `path` whose bytes
    hash to `digest`. A sidecar that cannot be written is skipped."""
    try:
        with replaced_atomically(_sidecar_path(path)) as fh:
            fh.write(_sha256_line(digest))
            for name, _, _ in _sidecar_records(ds.n, ds.dims):
                np.lib.format.write_array(fh, getattr(ds, name), version=(1, 0),
                                          allow_pickle=False)
    except OSError:
        pass


def _read_sidecar(path: str, digest: str, n: int, d: int) -> list[np.ndarray] | None:
    """The arrays stored beside `path`, or None unless the sidecar names
    `digest` and holds every array with the dtype and shape that the header's
    n and d imply."""
    arrays = []
    try:
        with open(_sidecar_path(path), "rb") as fh:
            line = _sha256_line(digest)
            if fh.read(len(line)) != line:
                return None
            for _, dtype, shape in _sidecar_records(n, d):
                if (np.lib.format.read_magic(fh) != (1, 0)
                        or np.lib.format.read_array_header_1_0(fh) != (shape, False, dtype)):
                    return None
                a = np.fromfile(fh, dtype=dtype, count=math.prod(shape))
                a.shape = shape  # in place, so it keeps owning its data; a short read raises
                arrays.append(a)
    except (OSError, ValueError, TypeError):
        return None
    return arrays


def _sha256(fh) -> str:
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(HASH_CHUNK_BYTES), b""):
        h.update(chunk)
    return h.hexdigest()


def _rows_text(ds: Dataset, a: int, b: int) -> str:
    rows = zip(ds.x[a:b].tolist(), ds.y_clean[a:b].tolist(), ds.y_noisy[a:b].tolist(),
               ds.labeled[a:b].astype(np.int64).tolist(),
               map(SPLITS.__getitem__, ds.codes[a:b].tolist()))
    return "".join(f"{','.join(map(repr, x))},{yc},{yn},{lab},{tag}\n"
                   for x, yc, yn, lab, tag in rows)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the header line, the column line, then the rows SAVE_BLOCK_ROWS
    at a time, into a temporary file that then replaces `path`; then the
    sidecar. Floats are written as repr (shortest round-trip text)."""
    header = {
        "version": DATASET_FORMAT_VERSION,
        "n": ds.n,
        "d": ds.dims,
        "c": ds.n_classes,
        "provenance": ds.provenance,
    }
    if ds.dims == 0:  # its rows would not parse, though the sidecar would read
        raise ValueError("a dataset file needs at least one feature column")
    lines = [json.dumps(header, sort_keys=True) + "\n", ",".join(_columns(ds.dims)) + "\n"]
    blocks = (_rows_text(ds, a, a + SAVE_BLOCK_ROWS) for a in range(0, ds.n, SAVE_BLOCK_ROWS))
    h = hashlib.sha256()
    with replaced_atomically(path) as fh:
        for text in itertools.chain(lines, blocks):
            data = text.encode("utf-8")
            h.update(data)
            fh.write(data)
    _write_sidecar(path, h.hexdigest(), ds)


def load_dataset(path: str) -> Dataset:
    """Read a file written by save_dataset. The header and the column line
    are checked on the text; the arrays come from the sidecar when it holds
    the file's sha256, else from one np.loadtxt of the body, after which the
    sidecar is written. Every way the file can be missing, malformed or
    unreadable raises a ValueError whose message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            digest = _sha256(fh.buffer)
            fh.seek(0)
            header = json.loads(fh.readline())
            version = header.get("version") if isinstance(header, dict) else None
            if version != DATASET_FORMAT_VERSION:
                raise ValueError(f"unsupported dataset file version {version}")
            n, d = header["n"], header["d"]
            if fh.readline().rstrip("\n") != ",".join(_columns(d)):
                raise ValueError("dataset file column header mismatch")
            arrays = _read_sidecar(path, digest, n, d)
            parsed = arrays is None
            if parsed:
                # one character more than the longest tag, so that a longer
                # tag fails validation instead of being cut to a legal one
                record = np.dtype([("x", np.float64, (d,)), ("y_clean", np.int64),
                                   ("y_noisy", np.int64), ("labeled", np.int64),
                                   ("split", f"<U{max(map(len, SPLITS)) + 1}")])
                with warnings.catch_warnings():  # an empty body is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    rec = np.loadtxt(fh, delimiter=",", dtype=record, comments=None, ndmin=1)
                # copies: contiguous arrays, not views into the records
                arrays = [rec["x"].copy(), rec["y_clean"].copy(), rec["y_noisy"].copy(),
                          rec["labeled"] != 0, rec["split"]]
        x, y_clean, y_noisy, labeled, split = arrays
        if len(x) != n:
            raise ValueError(f"header says {n} rows, the body has {len(x)}")
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise ValueError(f"row {i} (line {i + 3}): x_{j} = {x[i, j]} "
                             f"is not a finite number")
        ds = Dataset(x=x, y_clean=y_clean, y_noisy=y_noisy, labeled=labeled, split=split,
                     n_classes=header["c"], provenance=header.get("provenance", {}))
    except KeyError as e:
        raise ValueError(f"{path}: the header has no {e} field") from e
    except (ValueError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from e
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from e
    if parsed:
        _write_sidecar(path, digest, ds)
    return ds
