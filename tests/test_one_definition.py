"""Tier-1 gate: the bulk-transfer world, the remote-increment install,
its request round trip, the fault-injector constructor and the
plane-bench command line each exist once — and no attribute, constant
or class field is kept that nothing reads.

A source scan in the style of ``tests/test_metrics_lint.py`` (no world
is built, nothing is timed).  The census that motivated it found the
seeded TCP transfer written out 15 times and the remote-increment
install 12 times; each new copy drifts a little (a forgotten linger, a
different state layout) and rots on its own.  So outside
``benchmarks/perf/`` (the benchmark owns its worlds) and ``examples/``
(which show the steps on purpose):

* one function calls ``.linger(``            -> ``workloads.tcp_bulk``
* one function stores ``PARAM_REPLY_VCI``    -> ``workloads.am_flow``
* one function sends a request and then polls for the reply on a flow
  ``am_flow`` built                          -> ``workloads.AmFlow.request``
* one method builds a fault injector         -> ``FaultPlane.install``
  (``faults.py`` has no ``if site ==`` ladder; the three forwards that
  ``benchmarks/perf/`` pins are called from nowhere else)
* no ``benchmarks/bench_*.py`` / ``sweep_driver.py`` imports ``argparse``,
  calls ``json.dump`` or runs the ``legacy`` substrate itself: that is
  ``plane_main`` / ``bench_main`` / ``on_both_substrates``.
* no module under ``src/repro/`` outside ``repro/bench/`` imports
  ``repro.bench`` at run time: the library does not depend on its
  harness (the package root, which re-exports the whole public API,
  is the one exception).

And everywhere, ``benchmarks/perf/`` and ``examples/`` included as
readers: an attribute assigned under ``src/`` is loaded somewhere
(``write_only_attributes``), and so is every module-level constant and
class-body field declared there (``declared_never_read``).
"""

import ast
import functools
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


def _method_calls(fn, attr):
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def _am_round_trips(tree):
    """Outermost functions that hold an AM flow (call ``am_flow`` or
    touch ``.cli_ep``) and in which a ``sys_net_send`` is followed by a
    ``sys_recv_poll`` — the client's half of a round trip; a server
    polls first and sends after."""
    found = set()
    for fn in tree.body + [m for c in tree.body if isinstance(c, ast.ClassDef)
                           for m in c.body]:
        if not isinstance(fn, ast.FunctionDef):
            continue
        holds_flow = any(
            (isinstance(n, ast.Name) and n.id == "am_flow")
            or (isinstance(n, ast.Attribute) and n.attr == "cli_ep")
            for n in ast.walk(fn))
        sends = _method_calls(fn, "sys_net_send")
        polls = _method_calls(fn, "sys_recv_poll")
        if holds_flow and sends and polls and min(sends) < max(polls):
            found.add(fn.name)
    return found


#: the FaultPlane methods ``benchmarks/perf/{worlds,probes}.py`` call.
#: Only a `benchmark` PR may edit that directory; the day ROADMAP's
#: "Benchmark v2" re-spells its worlds these delete with no other edit.
FENCED_FORWARDS = {"impair_link", "crash_node", "flood_tenant"}


def _calls_fenced_forward(call):
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in FENCED_FORWARDS)


@functools.lru_cache(maxsize=None)
def census(root=ROOT):
    """{"linger": [...], "install": [...], "forward": [...],
    "round_trip": [...]} as ``file::function`` (one parse of the tree
    per root, shared by the tests below)."""
    out = {"linger": [], "install": [], "forward": [], "round_trip": []}
    for rel, path in _sources(root):
        with open(path) as fh:
            tree = ast.parse(fh.read(), rel)
        for kind, matches in (("linger", _is_linger),
                              ("install", _stores_reply_vci),
                              ("forward", _calls_fenced_forward)):
            owners = _Owners(matches)
            owners.visit(tree)
            out[kind] += [f"{rel}::{name}" for name in sorted(owners.found)]
        out["round_trip"] += [f"{rel}::{name}"
                              for name in sorted(_am_round_trips(tree))]
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


def _loads_and_stores(root):
    """One walk over ``src/``, ``tests/``, ``benchmarks/`` and
    ``examples/``: what ``src/`` stores (attributes assigned) and
    declares (module-level UPPER_CASE constants, class-body fields),
    each with its first ``file:line``, against what any of the four
    loads — as ``y.a``, as a bare name, or spelled as a whole string,
    the way ``getattr`` and field tables such as ``SHARED_TCB_FIELDS``
    name what they read; ``__slots__`` declares, it does not read."""
    stored, declared = {}, {}
    attrs, names, strings = set(), set(), set()
    for sub in ("src", "tests", "benchmarks", "examples"):
        pattern = os.path.join(root, sub, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            rel = os.path.relpath(path, root)
            with open(path) as fh:
                tree = ast.parse(fh.read(), rel)
            slots = {
                id(node) for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                for node in ast.walk(stmt.value)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        attrs.add(node.attr)
                    elif isinstance(node.ctx, ast.Store) and sub == "src":
                        stored.setdefault(node.attr, f"{rel}:{node.lineno}")
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        names.add(node.id)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in slots):
                    strings.add(node.value)
            if sub != "src":
                continue
            scopes = [("", tree.body)] + [
                (f"{node.name}.", node.body) for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)]
            for owner, body in scopes:
                for stmt in body:
                    if isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                    elif isinstance(stmt, ast.AnnAssign):
                        targets = [stmt.target]
                    else:
                        continue
                    for target in targets:
                        for node in ast.walk(target):
                            if (isinstance(node, ast.Name)
                                    and not node.id.startswith("__")
                                    and (owner or node.id.isupper())):
                                declared.setdefault(
                                    node.id,
                                    (f"{owner}{node.id}",
                                     f"{rel}:{stmt.lineno}"))
    return stored, declared, attrs, names, strings


@functools.lru_cache(maxsize=1)
def _repo_scan():
    return _loads_and_stores(ROOT)


def _scan(root):
    """The repo is walked once for both censuses; a planted tree is
    walked each time (its tests add files between calls)."""
    return _repo_scan() if root == ROOT else _loads_and_stores(root)


def write_only_attributes(root=ROOT):
    """{attribute: first ``file:line`` storing it} for every attribute
    assigned (``x.a = ...``, ``x.a += ...``) under ``src/`` that is
    loaded nowhere in ``src/``, ``tests/``, ``benchmarks/`` or
    ``examples/`` — neither as ``y.a`` nor spelled as a whole string.

    The scan goes by attribute name, not by class: it finds a counter
    nobody reports and a field kept "for later", and it is blind to an
    attribute whose only loads are its own class's bookkeeping or that
    shares its name with a live one (``PacketBuf.view``, read by nothing
    but its own ``release``, was found by hand).  Fields that are only
    ever set through ``__init__`` or declared in a class body are
    ``declared_never_read``'s.
    """
    stored, _declared, attrs, _names, strings = _scan(root)
    read = attrs | strings
    return {attr: where for attr, where in sorted(stored.items())
            if attr not in read}


def declared_never_read(root=ROOT):
    """{``NAME`` or ``Class.field``: ``file:line``} for every
    module-level UPPER_CASE constant and class-body field (a dataclass
    field, an enum member, a class constant) declared under ``src/``
    that nothing loads — not by name, not as an attribute, not as a
    whole string.  By name, like the scan above, so ``Calibration.x``
    is excused by any ``.x``; a keyword argument that *sets* a field
    does not read it."""
    _stored, declared, attrs, names, strings = _scan(root)
    read = attrs | names | strings
    return {label: where for name, (label, where) in sorted(declared.items())
            if name not in read}


def test_no_attribute_is_stored_and_never_read():
    found = write_only_attributes()
    excused = {key.rpartition(".")[2] for key in READ_ELSEWHERE}
    unread = {a: w for a, w in found.items() if a not in excused}
    assert not unread, (
        f"stored under src/ and read nowhere: {unread} - delete the "
        f"store, or name the reader in READ_ELSEWHERE")
    # the allow-list names only attributes that still need it
    assert excused <= set(found)


def test_nothing_is_declared_and_never_read():
    unread = declared_never_read()
    assert not unread, (
        f"declared under src/ and read nowhere: {unread} - delete it")


def test_a_declaration_nothing_reads_is_flagged(tmp_path):
    lib = tmp_path / "src" / "repro"
    lib.mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (lib / "cal.py").write_text(
        "from dataclasses import dataclass\n"
        "KINDS = ('drop', 'dup')\n"
        "LIMIT = 4\n"
        "lower_case = 1\n"
        "@dataclass\n"
        "class Cal:\n"
        "    used: int = 1\n"
        "    spare: int = 2\n"
        "    named: int = 3\n"
        "    MASK = 0xFF\n"
        "    def cost(self):\n"
        "        return self.used * LIMIT\n"
        "FIELDS = ('named',)\n"
        "def fields():\n"
        "    return FIELDS\n"
    )
    assert declared_never_read(str(tmp_path)) == {
        "KINDS": "src/repro/cal.py:2",
        "Cal.spare": "src/repro/cal.py:8",
        "Cal.MASK": "src/repro/cal.py:10"}
    # setting a field by keyword is not reading it; loading it is
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from repro.cal import Cal, KINDS\n"
        "cal = Cal(spare=3)\n"
        "print(cal.MASK, KINDS)\n"
    )
    assert declared_never_read(str(tmp_path)) == {
        "Cal.spare": "src/repro/cal.py:8"}


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


def test_one_am_request_round_trip():
    assert census()["round_trip"] == [
        "src/repro/bench/workloads.py::request"]


def fault_plane_shape(root=ROOT):
    """``(FaultPlane's public methods, lines of an `if site ==` ladder
    in faults.py)``."""
    with open(os.path.join(root, "src", "repro", "sim", "faults.py")) as fh:
        tree = ast.parse(fh.read())
    plane = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "FaultPlane")
    public = {fn.name for fn in plane.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    ladder = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name) and node.test.left.id == "site"
        and isinstance(node.test.ops[0], ast.Eq)]
    return public, ladder


def test_fault_plane_has_one_constructor():
    public, ladder = fault_plane_shape()
    assert public == {"install", "apply_scenario", "record", "ledger",
                      "total"} | FENCED_FORWARDS
    assert ladder == [] and census()["forward"] == []
    # ...and the fence still stands for a reason
    with open(os.path.join(ROOT, "benchmarks", "perf", "worlds.py")) as fh:
        pinned = fh.read()
    assert all(f".{name}(" in pinned for name in FENCED_FORWARDS)


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
        "def world(tb, plane):\n"
        "    flow = am_flow(tb)\n"
        "    plane.impair_link(tb.link, drop=0.1)\n"
        "    def client(proc):\n"
        "        yield from ck.sys_net_send(proc, nic, frame)\n"
        "        desc = yield from ck.sys_recv_poll(proc, flow.cli_ep)\n"
        "    def server(proc):\n"
        "        desc = yield from sk.sys_recv_poll(proc, flow.srv_ep)\n"
        "        yield from sk.sys_net_send(proc, nic, frame)\n"
        "def echo_server(proc, flow):\n"
        "    desc = yield from sk.sys_recv_poll(proc, flow.cli_ep)\n"
        "    yield from sk.sys_net_send(proc, nic, frame)\n"
    )
    lib = tmp_path / "src" / "repro" / "sim"
    lib.mkdir(parents=True)
    (lib / "faults.py").write_text(
        "class FaultPlane:\n"
        "    def install(self, site, target):\n"
        "        if site == 'link':\n"
        "            return self.impair_link(target)\n"
        "        elif site == 'nic':\n"
        "            return self.stress_nic(target)\n"
        "    def stress_nic(self, nic): pass\n"
        "    def _private(self): pass\n"
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
    assert found["round_trip"] == ["tests/test_new.py::world"]
    assert found["forward"] == ["src/repro/sim/faults.py::install",
                                "tests/test_new.py::world"]
    assert fault_plane_shape(str(tmp_path)) == (
        {"install", "stress_nic"}, [3, 5])
    errors = plane_bench_violations(str(tmp_path))
    assert len(errors) == 3
    assert all("bench_new.py" in e for e in errors)
