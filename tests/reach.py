"""The reach ledger: which of ``src/``'s functions only tests run.

    python -m tests.reach        # ~4 min on 2 cores; rewrites tests/reach.json

Every function under ``src/repro`` falls in the first class whose
sources call it:

* *world* -- the perf benchmark's five workloads at full size
  (``benchmarks/perf/worlds.py``), the fourteen ``python -m repro.bench``
  experiments, the full ``bench_planes.py`` grid and the canonical
  telemetry capture of ``make_experiments_md.py``;
* *example* -- ``examples/*.py``, each run as ``__main__``;
* *test* -- tier 1 and the pytest tests of ``benchmarks/bench_*.py``;
* *abstract* -- called by none of them, and its body only raises
  ``NotImplementedError``;
* *unreached* -- none of the above: delete it, test it, or make a
  source above reach it.

``tests/reach.json`` maps each function that is not *world* to its
class, keyed ``<path under src/>::<qualified name>``; world functions
are left out, so the file lists what no world needs.  ``test_reach.py``
checks in tier 1 that no entry is *unreached* or names a function that
is gone, and in the slow tier that a fresh run equals the file.

Each source runs in its own interpreter (two at a time, hash seed 0)
under ``sys.setprofile``, which records the code object of every Python
call.  A code object is matched to its ``def`` by file and
``co_qualname``, and by ``co_firstlineno``, which for a decorated
function is the line of its first decorator.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "benchmarks"
LEDGER = Path(__file__).with_name("reach.json")

#: class of each source, in precedence order
CLASSES = ("world", "example", "test")


# ---------------------------------------------------------------------------
# the functions: an ast walk of the source tree
# ---------------------------------------------------------------------------

def _raises_only_not_implemented(fn: ast.AST) -> bool:
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]          # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def functions(src: Path = SRC) -> dict[str, dict]:
    """``<path under src>::<qualname>`` -> ``{"file", "line", "lines",
    "abstract"}`` for every ``def`` under ``src`` (``line`` is the first
    decorator's, as in ``co_firstlineno``)."""
    found: dict[str, dict] = {}

    def walk(node, prefix, rel, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[f"{rel}::{qualname}"] = {
                    "file": path, "line": first,
                    "lines": child.end_lineno - child.lineno + 1,
                    "abstract": _raises_only_not_implemented(child),
                }
                walk(child, qualname + ".<locals>.", rel, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", rel, path)
            else:
                walk(child, prefix, rel, path)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        walk(ast.parse(path.read_text(), str(path)), "", rel, str(path))
    return found


def keys_of(codes, index: dict[str, dict]) -> set[str]:
    """The ``functions`` keys of the code objects in ``codes``."""
    by_code = {(fn["file"], fn["line"], key.split("::", 1)[1]): key
               for key, fn in index.items()}
    keys = set()
    for code in codes:
        # a script that puts ``benchmarks/../src`` on sys.path imports
        # its modules under that spelling
        path = os.path.normpath(os.path.join(ROOT, code.co_filename))
        key = by_code.get((path, code.co_firstlineno, code.co_qualname))
        if key is not None:
            keys.add(key)
    return keys


@contextlib.contextmanager
def recording():
    """Collect the code object of every Python call made inside the
    block, in every thread; the profiler found on entry is restored."""
    seen: set = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)
            # a trace hook's own calls raise no events: it is seen as
            # the hook of a frame it traces
            if frame.f_trace is not None:
                for hook in (frame.f_trace, sys.gettrace()):
                    code = getattr(hook, "__code__", None)
                    if code is not None:
                        add(code)

    outer, outer_threads = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer_threads)


def classify(index: dict[str, dict], reached: dict[str, set]) -> dict:
    """The ledger: each function no world reaches -> its class."""
    ledger = {}
    for key, fn in index.items():
        cls = next((c for c in CLASSES if key in reached.get(c, ())), None)
        if cls is None:
            cls = "abstract" if fn["abstract"] else "unreached"
        if cls != "world":
            ledger[key] = cls
    return dict(sorted(ledger.items()))


# ---------------------------------------------------------------------------
# the sources, each run in its own interpreter
# ---------------------------------------------------------------------------

def _run_script(path: Path, argv: list[str]) -> None:
    import runpy

    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise RuntimeError(f"{path.name} exited {exit_.code}") from None
    finally:
        sys.argv = saved


def _load(path: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perf_worlds() -> None:
    sys.path.insert(0, str(BENCH_DIR / "perf"))
    import worlds

    for name, build in worlds.BUILDERS.items():
        world = build(worlds.generate_inputs(name, 1))
        world.run()
        _attempted, failed, notes = world.verify()
        world.observables()
        world.counts()
        world.close()
        if failed or notes:
            raise RuntimeError(f"{name}: {failed} failed, {notes}")
    runners, _cells = worlds.load_paper_drivers(str(BENCH_DIR))
    for runner in runners:
        runner()


def _experiments() -> None:
    from repro.bench.__main__ import main

    if main([]) != 0:
        raise RuntimeError("python -m repro.bench failed")


def _plane_grid() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _run_script(BENCH_DIR / "bench_planes.py",
                    ["--out", os.path.join(tmp, "planes.json")])


def _canonical_capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _load(BENCH_DIR / "make_experiments_md.py").capture_canonical_telemetry(
            os.path.join(tmp, "canonical.telemetry.json"),
            os.path.join(tmp, "canonical.trace.json"))


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        _run_script(path, [])


def _pytest(*args: str) -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    if code != 0:
        raise RuntimeError(f"pytest {' '.join(args)} exited {code}")


def _tier1() -> None:
    # that test reads the ledger this run is writing
    _pytest("tests", "--deselect", "tests/test_reach.py::"
            "test_ledger_names_only_live_functions_none_unreached")


def _bench_tests() -> None:
    _pytest(*sorted(str(p.relative_to(ROOT))
                    for p in BENCH_DIR.glob("bench_*.py")))


#: name -> (class, runner); longest first, so two workers finish together
SOURCES = {
    "plane_grid": ("world", _plane_grid),
    "tier1": ("test", _tier1),
    "bench_tests": ("test", _bench_tests),
    "experiments": ("world", _experiments),
    "perf_worlds": ("world", _perf_worlds),
    "examples": ("example", _examples),
    "canonical_capture": ("world", _canonical_capture),
}


def run_source(name: str, out: str) -> None:
    """Worker entry: run one source under the recorder and write the
    keys of the ``src/`` functions it called to ``out``."""
    with recording() as seen:
        SOURCES[name][1]()
    reached = keys_of(seen, functions())
    Path(out).write_text(json.dumps(sorted(reached)))


def _spawn(name: str, tmp: str) -> set[str]:
    out = os.path.join(tmp, f"{name}.json")
    log = os.path.join(tmp, f"{name}.log")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log, "w") as fh:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tests.reach as r; r.run_source(*sys.argv[1:])",
             name, out],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(log) as fh:
            tail = fh.read()[-4000:]
        raise RuntimeError(f"source {name} failed:\n{tail}")
    with open(out) as fh:
        return set(json.load(fh))


def census() -> dict:
    """Run every source and return the ledger ``main`` would write."""
    reached: dict[str, set] = {cls: set() for cls in CLASSES}
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_spawn, name, tmp) for name in SOURCES}
        for name, future in futures.items():
            reached[SOURCES[name][0]] |= future.result()
    return classify(functions(), reached)


def write(ledger: dict, path: Path = LEDGER) -> None:
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def summary(ledger: dict, index: dict[str, dict]) -> str:
    """Functions and body lines per class, then the modules with the
    most test-only lines."""
    out = io.StringIO()
    totals: dict[str, list[int]] = {}
    for key, fn in index.items():
        row = totals.setdefault(ledger.get(key, "world"), [0, 0])
        row[0] += 1
        row[1] += fn["lines"]
    for cls in ("world", "example", "test", "abstract", "unreached"):
        n, lines = totals.get(cls, (0, 0))
        print(f"{cls:10} {n:5} functions {lines:6} lines", file=out)
    by_module: dict[str, int] = {}
    for key, cls in ledger.items():
        if cls == "test":
            module = key.split("::", 1)[0]
            by_module[module] = by_module.get(module, 0) + index[key]["lines"]
    print("test-only lines by module:", file=out)
    for module, lines in sorted(by_module.items(),
                                key=lambda kv: (-kv[1], kv[0]))[:12]:
        print(f"  {lines:5}  {module}", file=out)
    return out.getvalue()


def main() -> int:
    ledger = census()
    write(ledger)
    print(summary(ledger, functions()), end="")
    unreached = [key for key, cls in ledger.items() if cls == "unreached"]
    for key in unreached:
        print(f"unreached: {key}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
