"""Tier-1 gate: the bulk-transfer world, the remote-increment install
and the plane-bench command line each exist once — and no attribute is
kept that nothing reads.

A source scan in the style of ``tests/test_metrics_lint.py`` (no world
is built, nothing is timed).  The census that motivated it found the
seeded TCP transfer written out 15 times and the remote-increment
install 12 times; each new copy drifts a little (a forgotten linger, a
different state layout) and rots on its own.  So outside
``benchmarks/perf/`` (the benchmark owns its worlds) and ``examples/``
(which show the steps on purpose):

* one function calls ``.linger(``            -> ``workloads.tcp_bulk``
* one function stores ``PARAM_REPLY_VCI``    -> ``workloads.am_flow``
* no ``benchmarks/bench_*.py`` / ``sweep_driver.py`` imports ``argparse``,
  calls ``json.dump`` or runs the ``legacy`` substrate itself: that is
  ``plane_main`` / ``bench_main`` / ``on_both_substrates``.
* no module under ``src/repro/`` outside ``repro/bench/`` imports
  ``repro.bench`` at run time: the library does not depend on its
  harness (the package root, which re-exports the whole public API,
  is the one exception).

And everywhere, ``benchmarks/perf/`` and ``examples/`` included as
readers: an attribute assigned under ``src/`` is loaded somewhere
(``write_only_attributes``).
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: tests whose *subject* is the install — the parameter block, the
#: download, the bind — so they spell the steps out.  Everything else
#: calls ``am_flow``.
EXPLICIT_INSTALLS = {
    "tests/test_ash.py": "the ASH system's own download/bind tests",
    "tests/test_upcall_interface.py": "the upcall binding's own tests",
    "tests/test_exit_matrix.py": "golden digests over its own layout",
    "tests/test_jit_equivalence.py": "bare PhysicalMemory, no node",
    "tests/test_byte_ranges.py": "bare PhysicalMemory, no node",
}


def _sources(root=ROOT):
    for sub in ("src", "tests", "benchmarks"):
        pattern = os.path.join(root, sub, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            rel = os.path.relpath(path, root)
            if not rel.startswith(os.path.join("benchmarks", "perf")):
                yield rel, path


class _Owners(ast.NodeVisitor):
    """Collects the outermost function around every matching call."""

    def __init__(self, matches):
        self.matches, self.stack, self.found = matches, [], set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        if self.matches(node):
            self.found.add(self.stack[0] if self.stack else "<module>")
        self.generic_visit(node)


def _is_linger(call):
    return isinstance(call.func, ast.Attribute) and call.func.attr == "linger"


def _stores_reply_vci(call):
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "store_u32"
            and any(isinstance(n, ast.Name) and n.id == "PARAM_REPLY_VCI"
                    for arg in call.args for n in ast.walk(arg)))


def census(root=ROOT):
    """{"linger": [...], "install": [...]} as ``file::function``."""
    out = {"linger": [], "install": []}
    for rel, path in _sources(root):
        with open(path) as fh:
            tree = ast.parse(fh.read(), rel)
        for kind, matches in (("linger", _is_linger),
                              ("install", _stores_reply_vci)):
            owners = _Owners(matches)
            owners.visit(tree)
            out[kind] += [f"{rel}::{name}" for name in sorted(owners.found)]
    return out


def plane_bench_violations(root=ROOT):
    """What a bench script does that the shared runner owns."""
    errors = []
    for path in sorted(glob.glob(os.path.join(root, "benchmarks", "bench_*.py"))
                       + glob.glob(os.path.join(root, "benchmarks",
                                                "sweep_driver.py"))):
        rel = os.path.relpath(path, root)
        with open(path) as fh:
            tree = ast.parse(fh.read(), rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if "argparse" in names:
                errors.append(f"{rel}: imports argparse (use plane_main / "
                              f"bench_main extra_args)")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dump"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                errors.append(f"{rel}: calls json.dump (plane_main / "
                              f"BenchTable.save write the artefacts)")
            # "legacy" handed to a call, or looped over: a second run
            if isinstance(node, ast.Call):
                handed = node.args + [kw.value for kw in node.keywords]
            elif isinstance(node, ast.For):
                handed = list(ast.walk(node.iter))
            else:
                handed = []
            if any(isinstance(n, ast.Constant) and n.value == "legacy"
                   for n in handed):
                errors.append(f"{rel}: runs the legacy substrate by hand "
                              f"(use on_both_substrates)")
    return errors


def harness_imports(root=ROOT):
    """``file:line`` of every run-time import of ``repro.bench`` from
    library code (an import under ``if TYPE_CHECKING:`` never runs)."""
    found = []
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "repro", "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, src)[:-3].split(os.sep)
        if module[1] == "bench" or module == ["repro", "__init__"]:
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        typing_only = {
            id(node) for block in ast.walk(tree)
            if isinstance(block, ast.If)
            and "TYPE_CHECKING" in ast.dump(block.test)
            for stmt in block.body for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if id(node) in typing_only:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from ..bench.x import y`` in repro/net/z.py: two
                # levels up from the module is the package ``repro``
                base = module[:len(module) - node.level] if node.level else []
                names = [".".join(base + [node.module or ""]).strip(".")]
                names += [f"{names[0]}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "repro.bench" or name.startswith("repro.bench.")
                   for name in names):
                found.append(f"{os.path.relpath(path, root)}:{node.lineno}")
    return found


#: owner.attribute -> who reads it, where the scan cannot see the reader
READ_ELSEWHERE = {
    "ndarray.flags.writeable": "numpy itself: clearing it freezes the "
                               "cache model's shared line ramp",
}


def write_only_attributes(root=ROOT):
    """{attribute: first ``file:line`` storing it} for every attribute
    assigned (``x.a = ...``, ``x.a += ...``) under ``src/`` that is
    loaded nowhere in ``src/``, ``tests/``, ``benchmarks/`` or
    ``examples/`` — neither as ``y.a`` nor spelled as a whole string,
    the way ``getattr`` and field tables such as ``SHARED_TCB_FIELDS``
    name what they read; ``__slots__`` declares, it does not read.

    The scan goes by attribute name, not by class: it finds a counter
    nobody reports and a field kept "for later", and it is blind to an
    attribute whose only loads are its own class's bookkeeping or that
    shares its name with a live one (``PacketBuf.view``, read by nothing
    but its own ``release``, was found by hand), and to dataclass fields
    that are only ever set through ``__init__``.
    """
    stored, read = {}, set()
    for sub in ("src", "tests", "benchmarks", "examples"):
        pattern = os.path.join(root, sub, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            rel = os.path.relpath(path, root)
            with open(path) as fh:
                tree = ast.parse(fh.read(), rel)
            declared = {
                id(node) for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                for node in ast.walk(stmt.value)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif isinstance(node.ctx, ast.Store) and sub == "src":
                        stored.setdefault(node.attr, f"{rel}:{node.lineno}")
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in declared):
                    read.add(node.value)
    return {attr: where for attr, where in sorted(stored.items())
            if attr not in read}


def test_no_attribute_is_stored_and_never_read():
    found = write_only_attributes()
    excused = {key.rpartition(".")[2] for key in READ_ELSEWHERE}
    unread = {a: w for a, w in found.items() if a not in excused}
    assert not unread, (
        f"stored under src/ and read nowhere: {unread} - delete the "
        f"store, or name the reader in READ_ELSEWHERE")
    # the allow-list names only attributes that still need it
    assert excused <= set(found)


def test_a_write_only_attribute_is_flagged(tmp_path):
    lib = tmp_path / "src" / "repro"
    lib.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (lib / "pool.py").write_text(
        "class Pool:\n"
        "    __slots__ = ('made', 'lent', 'peak', 'tag')\n"
        "    def __init__(self):\n"
        "        self.made = self.lent = self.peak = 0\n"
        "        self.tag = None\n"
        "    def acquire(self):\n"
        "        self.made += 1\n"
        "        self.lent += 1\n"
        "        self.peak = max(self.peak, self.lent)\n"
        "FIELDS = ('tag',)\n"
    )
    assert write_only_attributes(str(tmp_path)) == {
        "made": "src/repro/pool.py:4"}
    # a reader anywhere in the four trees clears it
    (tmp_path / "tests" / "test_pool.py").write_text(
        "def test_pool(pool):\n"
        "    assert pool.made == 1\n"
    )
    assert write_only_attributes(str(tmp_path)) == {}


def test_library_does_not_import_its_harness(tmp_path):
    assert harness_imports() == []
    # ...and the scan sees each spelling
    pkg = tmp_path / "src" / "repro" / "net"
    pkg.mkdir(parents=True)
    (pkg / "lib.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from ..bench.testbed import Testbed\n"
        "from .. import bench\n"
        "if TYPE_CHECKING:\n"
        "    from ..bench.testbed import make_an2_pair\n"
        "def late():\n"
        "    import repro.bench.workloads\n"
    )
    assert harness_imports(str(tmp_path)) == [
        "src/repro/net/lib.py:2", "src/repro/net/lib.py:3",
        "src/repro/net/lib.py:7"]


def test_one_bulk_transfer_world():
    assert census()["linger"] == ["src/repro/bench/workloads.py::tcp_bulk"]


def test_one_remote_increment_install():
    installs = census()["install"]
    shared = [site for site in installs
              if site.split("::")[0] not in EXPLICIT_INSTALLS]
    assert shared == ["src/repro/bench/workloads.py::am_flow"]
    # the allowlist names only files that still need it
    assert {site.split("::")[0] for site in installs} - {
        "src/repro/bench/workloads.py"} == set(EXPLICIT_INSTALLS)


def test_plane_benches_only_declare():
    assert plane_bench_violations() == []


def test_a_second_copy_is_flagged(tmp_path):
    """The scan sees what it is for: a pasted transfer, a pasted
    install and a hand-rolled command line."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "tests" / "test_new.py").write_text(
        "def helper(mem, base):\n"
        "    def client_body(proc):\n"
        "        yield from client.linger(proc, duration_us=2e6)\n"
        "    mem.store_u32(base + 32 + PARAM_REPLY_VCI, 2)\n"
    )
    (tmp_path / "benchmarks" / "bench_new.py").write_text(
        "import argparse, json\n"
        "def main():\n"
        "    for substrate in ('fast', 'legacy'):\n"
        "        pass\n"
        "    json.dump({}, open('x', 'w'))\n"
    )
    found = census(str(tmp_path))
    assert found["linger"] == ["tests/test_new.py::helper"]
    assert found["install"] == ["tests/test_new.py::helper"]
    errors = plane_bench_violations(str(tmp_path))
    assert len(errors) == 3
    assert all("bench_new.py" in e for e in errors)
