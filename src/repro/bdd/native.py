"""Build and load the native BDD kernel (``_native.c``).

The extension is compiled on first import into a per-user cache
directory (``$XDG_CACHE_HOME/repro-bdd``, default ``~/.cache/repro-bdd``)
under a name keyed by a hash of the C source, the compiler command and
the interpreter's extension suffix, so an edited source or another
interpreter gets its own build and a warm cache costs one ``stat``.  The
compiler writes to a private temporary file that is renamed into place,
so concurrent importers (spawned worker processes) never load a
half-written library.

Loading a library runs its code, so the directory must be private: it
is created with mode 0700, and a directory that another user owns or
that anyone else may write to is refused rather than trusted.

When the build fails or the directory is refused, :func:`select` warns
once (``RuntimeWarning`` carrying the reason) and returns the
pure-Python kernel instead — slower, but identical node for node.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import stat
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import ModuleType
from typing import Optional, Sequence, Tuple

from .kernel import BDDError, PyKernel

__all__ = ["load", "select"]

_SOURCE = Path(__file__).with_name("_native.c")
_FLAGS = ("-O2", "-fPIC", "-shared")


def _default_compiler() -> Sequence[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-bdd"


def _private_dir(directory: Path) -> Path:
    """*directory*, created with mode 0700 if missing.  Raises OSError
    unless it is a directory of this user that no one else can write
    to."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.stat()
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o022):
        raise OSError(f"build cache {directory} is not a directory that "
                      f"only this user (uid {os.getuid()}) can write to")
    return directory


def _compile(compiler: Sequence[str], target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-",
                               suffix=target.suffix)
    os.close(fd)
    cmd = [*compiler, *_FLAGS, "-I", sysconfig.get_paths()["include"],
           str(_SOURCE), "-o", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode:
            raise RuntimeError(f"{shlex.join(cmd)} exited with "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(compiler: Optional[Sequence[str]] = None,
         cache_dir: Optional[Path] = None) -> ModuleType:
    """The native kernel module, compiled first if no cached build
    matches the current source.  Raises on any build or load failure."""
    compiler = list(compiler or _default_compiler())
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), suffix.encode(),
                 "\0".join(compiler + list(_FLAGS)).encode()):
        digest.update(part)
        digest.update(b"\0")
    name = f"_native-{digest.hexdigest()[:16]}{suffix}"
    directory = _private_dir(Path(cache_dir) if cache_dir is not None
                             else _cache_dir())
    target = directory / name
    if not target.exists():
        _compile(compiler, target)
    spec = importlib.util.spec_from_file_location("repro.bdd._native",
                                                  target)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {target}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.set_error(BDDError)
    return module


def select(compiler: Optional[Sequence[str]] = None,
           cache_dir: Optional[Path] = None) -> Tuple[type, str]:
    """``(kernel class, "native" | "python")``: the native kernel when it
    builds and loads, else the pure-Python one with a RuntimeWarning."""
    try:
        return load(compiler, cache_dir).Kernel, "native"
    except (OSError, RuntimeError, ImportError,
            subprocess.SubprocessError) as exc:
        warnings.warn(
            f"repro.bdd: native BDD kernel unavailable, using the "
            f"pure-Python kernel (same results, several times slower): "
            f"{exc}", RuntimeWarning, stacklevel=2)
        return PyKernel, "python"
