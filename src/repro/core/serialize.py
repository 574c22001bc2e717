"""MNC sketch (de)serialization.

The paper positions the sketch as the thing a distributed job computes and
ships to the driver; that requires a wire/disk format. Sketches serialize
to a single ``.npz`` file (or an in-memory ``dict`` of arrays) holding the
count vectors, optional extensions, and the two flags. Round-tripping is
exact and validated on load by the :class:`MNCSketch` constructor.

npz arrays carry their dtype, so the format needs no version for the count
width: files written with int64 counts load through the validating
constructor, which range-checks them and narrows them to
:data:`~repro.core.sketch.COUNT_DTYPE`.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.sketch import MNCSketch
from repro.errors import SketchError

_FORMAT_VERSION = 1


def sketch_to_arrays(sketch: MNCSketch) -> Dict[str, np.ndarray]:
    """Encode a sketch as a flat dict of numpy arrays (npz-compatible)."""
    arrays: Dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "shape": np.array(sketch.shape, dtype=np.int64),
        "hr": sketch.hr,
        "hc": sketch.hc,
        "flags": np.array(
            [int(sketch.fully_diagonal), int(sketch.exact)], dtype=np.int64
        ),
    }
    if sketch.her is not None:
        arrays["her"] = sketch.her
    if sketch.hec is not None:
        arrays["hec"] = sketch.hec
    return arrays


def sketch_from_arrays(arrays) -> MNCSketch:
    """Decode a sketch from the dict produced by :func:`sketch_to_arrays`.

    The version field is validated *before* any other field is touched: a
    payload written by a newer build may have renamed or re-typed fields,
    and decoding it anyway would either fail with a misleading
    "missing field" error or silently misinterpret the data.
    """
    try:
        version = int(np.asarray(arrays["version"]).ravel()[0])
    except KeyError:
        raise SketchError("serialized sketch missing field 'version'") from None
    if version > _FORMAT_VERSION:
        raise SketchError(
            f"sketch format version {version} is newer than this build "
            f"supports (reads up to version {_FORMAT_VERSION}); "
            "refusing to decode a payload from a future format"
        )
    if version != _FORMAT_VERSION:
        raise SketchError(
            f"unsupported sketch format version {version} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    try:
        shape = tuple(int(d) for d in np.asarray(arrays["shape"]).ravel())
        hr = np.asarray(arrays["hr"])
        hc = np.asarray(arrays["hc"])
        flags = np.asarray(arrays["flags"]).ravel()
    except KeyError as missing:
        raise SketchError(f"serialized sketch missing field {missing}") from None
    if len(shape) != 2:
        raise SketchError(f"serialized shape must have two entries, got {shape}")
    her = np.asarray(arrays["her"]) if "her" in arrays else None
    hec = np.asarray(arrays["hec"]) if "hec" in arrays else None
    return MNCSketch(
        shape=shape, hr=hr, hc=hc, her=her, hec=hec,
        fully_diagonal=bool(flags[0]), exact=bool(flags[1]),
    )


def save_sketch(path: str | Path, sketch: MNCSketch) -> None:
    """Write a sketch to *path* in ``.npz`` form.

    Like ``np.savez``, appends ``.npz`` when *path* lacks it. The file is
    written beside the target under a name unique to this thread and
    renamed onto it, so a reader (or a catalog warm start) never sees a
    torn file under the key, even when the write fails or the process dies
    midway. The temporary name does not end in ``.npz``, so catalog scans
    skip it.
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(f"{target.name}.npz")
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(
        f".{target.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "wb") as stream:
            np.savez(stream, **sketch_to_arrays(sketch))
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_sketch(path: str | Path) -> MNCSketch:
    """Read a sketch written by :func:`save_sketch`."""
    with np.load(Path(path)) as arrays:
        return sketch_from_arrays(arrays)
