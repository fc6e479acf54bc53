"""Build + load the native coverage kernel behind :mod:`ctypes`.

This module is the **only** place in the package allowed to import
``ctypes`` (reprolint rule R7 enforces the boundary).  It provides:

* :func:`find_compiler` — locate a C compiler (``$CC``, the compiler
  Python was built with, then ``cc``/``gcc``/``clang`` on ``$PATH``).
* :func:`build_library` — compile ``coverage_kernel.c`` into a per-user
  cache directory, keyed by the SHA-256 of the source so editing the C
  file (or upgrading the package) transparently recompiles, while
  repeat imports reuse the cached artifact.
* :func:`load_kernel` — resolve a :class:`NativeKernel` once per
  process: a prebuilt setuptools extension artifact next to the package
  if one exists (never *imported* — always opened via ``ctypes``),
  otherwise the cache build.  No compiler (or ``REPRO_NATIVE=0``) means
  ``None`` — callers fall back to the numpy kernel; the first silent
  fallback is logged once at INFO level.
* :func:`resolve_kernel` — turn a user-facing selector (``"auto"`` /
  ``"native"`` / ``"numpy"`` / ``None``) into the effective kernel
  name, raising :class:`~repro.exceptions.NativeKernelError` only for
  an *explicit* ``"native"`` request that cannot be satisfied.

No new runtime dependencies: everything here is stdlib.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import List, Optional

from repro.exceptions import NativeKernelError

__all__ = [
    "KERNEL_NAMES",
    "NativeKernel",
    "build_library",
    "find_compiler",
    "kernel_cache_dir",
    "kernel_source_path",
    "load_kernel",
    "native_available",
    "native_disabled",
    "resolve_kernel",
]

logger = logging.getLogger("repro._native")

#: User-facing kernel selectors accepted by ``CoverageState`` / the CLI.
KERNEL_NAMES = ("auto", "native", "numpy")

#: ``REPRO_NATIVE`` values that force the numpy fallback.
_DISABLED_VALUES = frozenset({"0", "false", "off", "no"})

_c_long = ctypes.c_long
_c_void_p = ctypes.c_void_p


def native_disabled() -> bool:
    """Return whether ``REPRO_NATIVE`` forces the numpy fallback."""
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in _DISABLED_VALUES


def kernel_source_path() -> Path:
    """Return the path of the bundled ``coverage_kernel.c`` source."""
    return Path(__file__).resolve().with_name("coverage_kernel.c")


def kernel_cache_dir() -> Path:
    """Return the per-user cache directory for compiled kernels.

    ``$REPRO_NATIVE_CACHE`` overrides the default
    ``~/.cache/repro-tpp/native`` (tests point it at a tmpdir).
    """
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-tpp" / "native"


def find_compiler() -> Optional[List[str]]:
    """Return the C compiler command to use, or ``None`` if there is none.

    Order: ``$CC``, the compiler recorded in Python's build config, then
    ``cc`` / ``gcc`` / ``clang`` on ``$PATH``.  The result is the argv
    prefix (the env/config entries may carry flags, e.g. ``"gcc
    -pthread"``).
    """
    candidates: List[List[str]] = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc.split())
    config_cc = sysconfig.get_config_var("CC")
    if config_cc:
        candidates.append(str(config_cc).split())
    for name in ("cc", "gcc", "clang"):
        candidates.append([name])
    for command in candidates:
        if command and shutil.which(command[0]):
            return command
    return None


def _source_digest(source: Path) -> str:
    return hashlib.sha256(source.read_bytes()).hexdigest()


def _shared_suffix() -> str:
    if os.name == "nt":
        return ".dll"
    return ".so"


def build_library(force: bool = False) -> Path:
    """Compile the kernel into the per-user cache; return the artifact path.

    The artifact name embeds the first 16 hex digits of the source
    SHA-256, so a changed source never collides with a stale build and a
    stale cache entry is simply ignored (recompiled under its new key).
    Compilation goes through a temp file + ``os.replace`` so concurrent
    builders race benignly.

    Raises
    ------
    NativeKernelError
        If no C compiler is available or compilation fails.
    """
    source = kernel_source_path()
    digest = _source_digest(source)
    cache_dir = kernel_cache_dir()
    artifact = cache_dir / f"coverage_kernel-{digest[:16]}{_shared_suffix()}"
    if artifact.exists() and not force:
        return artifact
    compiler = find_compiler()
    if compiler is None:
        raise NativeKernelError(
            "no C compiler found (tried $CC, the Python build compiler, "
            "cc/gcc/clang); set CC or install a toolchain, or use the "
            "numpy kernel"
        )
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(
        suffix=_shared_suffix(), prefix="coverage_kernel-", dir=str(cache_dir)
    )
    os.close(fd)
    command = compiler + [
        "-O3",
        "-fPIC",
        "-shared",
        "-o",
        temp_path,
        str(source),
    ]
    try:
        completed = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if completed.returncode != 0:
            raise NativeKernelError(
                f"native kernel compilation failed ({' '.join(command)}):\n"
                f"{completed.stdout}"
            )
        os.replace(temp_path, artifact)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
    return artifact


def _prebuilt_library() -> Optional[Path]:
    """Return the setuptools-built extension artifact next to the package.

    ``pip install`` with a toolchain compiles the ``optional=True``
    extension ``repro._native._coverage_kernel``; the resulting shared
    object lives beside this module.  It is opened with ``ctypes`` and
    never imported — the C file has no real CPython module init.
    """
    package_dir = Path(__file__).resolve().parent
    for candidate in sorted(package_dir.glob("_coverage_kernel*")):
        if candidate.suffix in (".so", ".pyd", ".dll", ".dylib"):
            return candidate
    return None


class NativeKernel:
    """The bound symbols of one loaded coverage-kernel shared library.

    Every symbol is bound with explicit ``argtypes``/``restype`` (rule
    R7); pointer arguments are ``c_void_p`` so call sites pass the cached
    ``ndarray.ctypes.data`` integers without per-call adapter objects.
    """

    def __init__(self, library_path: Path) -> None:
        self.library_path = library_path
        lib = ctypes.CDLL(str(library_path))
        self._lib = lib

        kill_instances = lib.repro_kill_instances
        kill_instances.argtypes = [_c_void_p, _c_long]
        kill_instances.restype = _c_long
        self.kill_instances = kill_instances

        kill_many = lib.repro_kill_many
        kill_many.argtypes = [_c_void_p, _c_void_p, _c_long, _c_void_p]
        kill_many.restype = _c_long
        self.kill_many = kill_many

        heap_build = lib.repro_heap_build
        heap_build.argtypes = [_c_void_p, _c_void_p, _c_long]
        heap_build.restype = _c_long
        self.heap_build = heap_build

        top_validate = lib.repro_top_validate
        top_validate.argtypes = [_c_void_p, _c_void_p]
        top_validate.restype = _c_long
        self.top_validate = top_validate

        top_many = lib.repro_top_many
        top_many.argtypes = [_c_void_p, _c_long, _c_void_p, _c_void_p]
        top_many.restype = _c_long
        self.top_many = top_many

        pair_arena_build = lib.repro_pair_arena_build
        pair_arena_build.argtypes = [_c_void_p, _c_long, _c_void_p, _c_long]
        pair_arena_build.restype = _c_long
        self.pair_arena_build = pair_arena_build

        pair_validate_many = lib.repro_pair_validate_many
        pair_validate_many.argtypes = [_c_void_p, _c_void_p, _c_long, _c_long, _c_void_p]
        pair_validate_many.restype = _c_long
        self.pair_validate_many = pair_validate_many

        sgb_drive = lib.repro_sgb_drive
        sgb_drive.argtypes = [_c_void_p, _c_long, _c_void_p, _c_void_p]
        sgb_drive.restype = _c_long
        self.sgb_drive = sgb_drive

        pair_drive = lib.repro_pair_drive
        pair_drive.argtypes = [_c_void_p] + [_c_long] * 3 + [_c_void_p, _c_long] + [
            _c_void_p
        ] * 6
        pair_drive.restype = _c_long
        self.pair_drive = pair_drive

        mt_shuffle = lib.repro_mt_shuffle
        mt_shuffle.argtypes = [_c_void_p, _c_void_p, _c_long]
        mt_shuffle.restype = _c_long
        self.mt_shuffle = mt_shuffle

        walk_motif = lib.repro_walk_motif
        walk_motif.argtypes = [_c_long] * 3 + [_c_void_p] * 4 + [
            _c_long,
            _c_void_p,
            _c_void_p,
            _c_long,
            _c_void_p,
        ]
        walk_motif.restype = _c_long
        self.walk_motif = walk_motif

        assemble_index = lib.repro_assemble_index
        assemble_index.argtypes = [_c_long] * 5 + [_c_void_p] * 14
        assemble_index.restype = _c_long
        self.assemble_index = assemble_index

        splice_graph = lib.repro_splice_graph
        splice_graph.argtypes = [_c_long] * 3 + [_c_void_p] * 6 + [
            _c_long,
            _c_void_p,
            _c_long,
        ] + [_c_void_p] * 6
        splice_graph.restype = _c_long
        self.splice_graph = splice_graph


_LOAD_LOCK = threading.Lock()
_LOADED: Optional[NativeKernel] = None
_LOAD_FAILED = False
_FALLBACK_LOGGED = False


def load_kernel() -> Optional[NativeKernel]:
    """Return the process-wide :class:`NativeKernel`, or ``None``.

    Resolution happens once per process (the failure is cached too):
    ``REPRO_NATIVE=0`` → ``None``; a prebuilt extension artifact → load
    it; otherwise compile into the user cache.  Any failure (no
    compiler, bad toolchain, unloadable artifact) degrades to ``None``
    with a one-time INFO log — never an exception.
    """
    global _LOADED, _LOAD_FAILED, _FALLBACK_LOGGED
    if native_disabled():
        return None
    if _LOADED is not None:
        return _LOADED
    if _LOAD_FAILED:
        return None
    with _LOAD_LOCK:
        if _LOADED is not None or _LOAD_FAILED:
            return _LOADED
        try:
            library = _prebuilt_library()
            if library is not None:
                kernel = NativeKernel(library)
            else:
                kernel = NativeKernel(build_library())
        except (NativeKernelError, OSError) as error:
            _LOAD_FAILED = True
            if not _FALLBACK_LOGGED:
                _FALLBACK_LOGGED = True
                logger.info(
                    "native coverage kernel unavailable (%s); "
                    "falling back to the numpy kernel",
                    error,
                )
            return None
        _LOADED = kernel
        return kernel


def native_available() -> bool:
    """Return whether the native kernel can be loaded in this process."""
    return load_kernel() is not None


def resolve_kernel(kernel: Optional[str]) -> str:
    """Resolve a kernel selector to the effective ``"native"``/``"numpy"``.

    ``None``/``"auto"`` prefer native when loadable, else numpy.
    ``"native"`` demands it: unavailability raises
    :class:`NativeKernelError` — except under ``REPRO_NATIVE=0``, where
    the kill switch wins silently (so a forced-fallback run of a suite
    that requests ``"native"`` explicitly still exercises the numpy
    path instead of erroring).
    """
    if kernel is None or kernel == "auto":
        return "native" if native_available() else "numpy"
    if kernel == "numpy":
        return "numpy"
    if kernel == "native":
        if native_disabled():
            return "numpy"
        if not native_available():
            raise NativeKernelError(
                "kernel='native' requested but the native coverage kernel "
                "could not be loaded (no C compiler / build failure); use "
                "kernel='auto' to fall back automatically"
            )
        return "native"
    raise NativeKernelError(
        f"unknown kernel {kernel!r}; valid kernels: {', '.join(KERNEL_NAMES)}"
    )
