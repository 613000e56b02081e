"""The package's compiled library: its C sources built once and loaded with
``ctypes``.

``_walk.c`` holds the walk kernel's step loop and ``_csv.c`` the CSV
formatter.  Both go into one shared library, built on first use into this
package's ``__pycache__`` with the C compiler that ``sysconfig`` names and
kept there under a key over the sources, the flags and the compiler, so later
processes only load it.  :func:`library` is ``None`` where no compiler is
named or the build or the load fails; each caller then runs its pure-Python
path.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shlex
import sysconfig
import tempfile
import zlib
from pathlib import Path

__all__ = ["load", "library"]

_HERE = Path(__file__).parent
_SOURCES = (_HERE / "_walk.c", _HERE / "_csv.c")
# portable and exact: no -march, no -ffast-math, no fused multiply-adds
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# this library's builds, and those of the walk kernel alone that it replaced
_BUILDS = ("_native-*.so", "_walk-*.so")
# every exported function: (restype, argtypes)
_PROTOTYPES = {
    # flat amplitudes, steps, coin entries, sums or NULL
    "coinwalk_advance": (None, [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]),
    # column pointers, column kinds, column count, first row, row count, output; bytes written
    "coinwalk_format_rows": (
        ctypes.c_int64,
        [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p],
    ),
}


def load(cache_dir: Path) -> ctypes.CDLL | None:
    """The library, built into ``cache_dir`` unless a build of these sources
    with these flags and this compiler is there already; a new build deletes
    the older ones.  ``None`` when ``sysconfig`` names no compiler, or the
    build or the load fails."""
    try:
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        if not cc:
            return None
        # crc32 rather than hashlib, whose import alone costs more than the load
        key = zlib.crc32(b"\0".join([*(s.read_bytes() for s in _SOURCES), *(s.encode() for s in (*_CFLAGS, *cc))]))
        lib = cache_dir / f"_native-{key:08x}.so"
        if not lib.exists():
            import subprocess  # only a build needs it, and its import is as slow

            cache_dir.mkdir(parents=True, exist_ok=True)
            # concurrent builds each write their own file; the rename is atomic
            fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=lib.name, dir=cache_dir)
            os.close(fd)
            tmp = Path(tmp)
            try:
                build = subprocess.run([*cc, *_CFLAGS, "-o", str(tmp), *map(str, _SOURCES)], capture_output=True)
                if build.returncode != 0:
                    return None
                os.replace(tmp, lib)
            finally:
                tmp.unlink(missing_ok=True)
            for stale in (p for pattern in _BUILDS for p in cache_dir.glob(pattern)):
                if stale != lib:  # other sources, flags or compiler
                    with contextlib.suppress(OSError):
                        stale.unlink()
        dll = ctypes.CDLL(str(lib))
        for name, (restype, argtypes) in _PROTOTYPES.items():
            func = getattr(dll, name)
            func.restype, func.argtypes = restype, argtypes
    except (OSError, ValueError, AttributeError):
        return None
    return dll


@functools.cache
def library() -> ctypes.CDLL | None:
    """The library this process runs, loaded on the first call."""
    return load(_HERE / "__pycache__")
