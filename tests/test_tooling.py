import ast
import dataclasses
import importlib
import importlib.util
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import dirachl
from dirachl import cli, core, forward, inverse
from dirachl.core import BoundaryParam
from dirachl.forward import jost_kernel_direct
from dirachl.spectral import SearchRegion, find_resonances
from dirachl.synth import random_piecewise_potential
from oracles import dense_transform

MODULES = ["dirachl"] + [f"dirachl.{m.name}" for m in pkgutil.iter_modules(dirachl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_imported_names_exist(name):
    # private helpers shared across modules (forward._segment_factors in
    # canonical, spectral._polish in transforms) fail only when the import runs, and
    # some imports sit inside functions
    spec = importlib.util.find_spec(name)
    tree = ast.parse(Path(spec.origin).read_text())
    package = name if spec.submodule_search_locations else name.rpartition(".")[0]
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        source = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
        if not source.startswith("dirachl"):
            continue
        mod = importlib.import_module(source)
        missing += [f"{source}.{a.name}" for a in node.names
                    if not hasattr(mod, a.name)
                    and importlib.util.find_spec(f"{source}.{a.name}") is None]
    assert not missing, f"{name} imports missing names {missing}"


_CHIRPS = {"k", "chirp", "chirps"}
_ENDS = {"lo", "hi"}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_segment_propagator():
    # the closed-form segment exponential and its chirp gauge (a phase of
    # chirp times segment end) are formed only in forward._segment_factors;
    # a use anywhere else is a second Dirac propagator
    found = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (name == "dirachl.forward" and fn.name in (
                    "_segment_factors", "_expm_traceless")):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_expm_traceless" in _names(node.func):
                    found.append(f"{name}.{fn.name} calls _expm_traceless")
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                        and any(_names(a) & _CHIRPS and _names(b) & _ENDS
                                for a, b in ((node.left, node.right), (node.right, node.left)))):
                    found.append(f"{name}.{fn.name} forms a chirp-gauge phase")
    assert not found, f"segment propagators outside forward._segment_factors: {sorted(set(found))}"


def test_one_piece_expansion():
    # piece bounds become cell indices only in core._piece_cells, which
    # checks that the pieces tile the grid; a second expansion could accept
    # pieces that the first refuses
    found = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (name, fn.name) == ("dirachl.core", "_piece_cells"):
                continue
            found += [f"{name}.{fn.name}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "index_of"
                      and any(_names(a) & _ENDS for a in node.args)]
    assert not found, f"piece bounds expanded outside core._piece_cells: {sorted(set(found))}"


def _strings(node):
    """The literal text in a node: its string constants, f-string parts included."""
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _message_branches(handler):
    """Tests in an except clause that read the caught exception's text,
    str(exc) or repr(exc): an if, while or assert test, a conditional
    expression or a comparison."""
    reads = [n for n in ast.walk(handler) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id in ("str", "repr")
             and any(isinstance(a, ast.Name) and a.id == handler.name for a in n.args)]
    tests = [node.test if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)) else node
             for node in ast.walk(handler)
             if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert, ast.Compare))]
    return [t for t in tests if any(r in ast.walk(t) for r in reads)]


def test_one_check_each():
    # an argument that must be a finite positive number is checked only by
    # core._check_positive (copies had let NaN through), and the kind of an
    # error comes from its class: no code branches on exception message
    # text, as cli.main once did with str(exc).startswith("parse:")
    found = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) != ("dirachl.core",
                                                                         "_check_positive"):
                found += [f"{name}.{node.name} writes its own positivity check"
                          for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is not None
                          and any("must be finite and positive" in t for t in _strings(r.exc))]
            if isinstance(node, ast.ExceptHandler) and node.name and _message_branches(node):
                found.append(f"{name} branches on the message of {node.name}")
    assert not found, f"checks outside their one place: {sorted(set(found))}"


def _zero_sum_terms(fn):
    """Kinds of phase-sum term that a function forms: np.angle of a
    difference z - z_n, or a division by |z - z_n|**2, with the difference
    written inline or held in a local name."""
    diffs = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Sub)
             for t in node.targets if isinstance(t, ast.Name)}

    def is_diff(node):
        return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub))
                or (isinstance(node, ast.Name) and node.id in diffs))

    kinds = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and "angle" in _names(node.func)
                and node.args and is_diff(node.args[0])):
            kinds.add("np.angle of a difference")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Pow)
                and isinstance(node.right.right, ast.Constant) and node.right.right.value == 2
                and isinstance(node.right.left, ast.Call) and "abs" in _names(node.right.left.func)
                and node.right.left.args and is_diff(node.right.left.args[0])):
            kinds.add("division by |z - z_n|^2")
    return kinds


def test_one_zero_sum():
    # the scattering phase sums over zeros, arg(z - z_n) and
    # Im z_n / |z - z_n|^2, are formed only in spectral._zero_sums; a term
    # anywhere else in spectral is a second copy of the zero sum
    tree = ast.parse(Path(importlib.util.find_spec("dirachl.spectral").origin).read_text())
    found, helper = [], set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name == "_zero_sums":
            helper = _zero_sum_terms(fn)
        else:
            found += [f"{fn.name}: {kind}" for kind in _zero_sum_terms(fn)]
    assert not found, f"phase-sum terms outside spectral._zero_sums: {sorted(set(found))}"
    assert helper == {"np.angle of a difference", "division by |z - z_n|^2"}


def test_cli_import_loads_no_scipy():
    # the library runs on numpy alone; scipy is a test-suite reference
    code = "import sys, dirachl.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    loaded = out.stdout.split()
    assert not loaded, f"importing dirachl.cli loads {len(loaded)} scipy modules: {loaded[:4]} ..."


def test_no_scipy_imports():
    # no module under src/dirachl imports scipy, lazily inside a function or not
    found = []
    for path in sorted(Path(dirachl.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "scipy" in roots:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imported at {found}"


def test_no_catch_all_handlers():
    # a bare except or an except Exception turns an evaluator bug (a
    # TypeError, a KeyError) into a silent numerical fallback
    found = []
    for path in sorted(Path(dirachl.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or _names(t) & {"Exception", "BaseException"} for t in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"catch-all handlers at {found}"


def test_perfbench_spans_resolve():
    # perfbench wraps these names at run time and only reports a missing one
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = list(spans.LAYERS.values()) + list(spans.JSON_CODEC)
    missing = []
    for module, attr_path in targets:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr_path}")
    assert not missing, f"perfbench/spans.py names missing in dirachl: {missing}"


def test_readme_layout_names_exist():
    # every bare `name` in a row of README's "Library layout" table is an
    # attribute of that row's module
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    missing = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not re.fullmatch(r"`dirachl\.\w+`", cells[0]):
            continue
        mod = importlib.import_module(cells[0].strip("`"))
        missing += [f"{mod.__name__}.{n}" for n in re.findall(r"`(\w+)`", cells[1])
                    if not hasattr(mod, n)]
    assert not missing, f"README layout names missing in dirachl: {missing}"


def test_chirp_route_pinned(monkeypatch):
    # arithmetic real-step runs of z at or above core._RUN_MIN, in the given
    # order or in (Im z, Re z) order, never reach the dense product; every
    # other point does, and matches the dense oracle
    rep = jost_kernel_direct(random_piecewise_potential(1, n=512), BoundaryParam(0.3))
    dense = core._dense_plain
    entries = []
    m, nodes = core._RUN_MIN, rep.g.values.size
    # the end and cut corrections are (2 + #cuts)-node sums through
    # _dense_plain on every route: only sums over all nodes are counted
    monkeypatch.setattr(core, "_dense_plain", lambda z, s, v: (
        s.size == nodes and entries.append(z.size * s.size)) or dense(z, s, v))
    rows = (np.linspace(-12.0, 12.0, 81)[None, :] + 1j * np.linspace(0.0, 12.0, 33)[:, None]).ravel()
    # the spectra benchmark's rectangle: columns of 9 with an imaginary step,
    # whose rows are found among the points sorted by (Im z, Re z)
    columns = (3.0 + np.linspace(-5.0, 5.0, 41)[:, None]
               + 1j * (-1.5 + np.linspace(-1.0, 1.0, 9)[None, :])).ravel()
    chirped = {
        "long run": np.linspace(-40.0, 40.0, 4001),
        "descending run at the threshold": np.linspace(7.0, -3.0, m),
        "rows of constant Im z": rows,
        "held-out grid": (np.arange(-120, 121) + 0.5) * (300.0 / 241.0),
        "runs apart": np.concatenate([np.linspace(0.0, 5.0, 40), np.linspace(6.0, 30.0, 17)]),
        "runs sharing an end point": np.concatenate([np.linspace(0.0, 5.0, 40),
                                                     np.linspace(5.0, 30.0, m + 1)[1:]]),
        "rectangle in column order": columns,
        "permuted linspace": np.random.default_rng(3).permutation(np.linspace(-20.0, 20.0, 300)),
    }
    for name, z in chirped.items():
        entries.clear()
        rep.psi(z)
        assert sum(entries) == 0, f"{name}: {sum(entries)} dense entries"
    rng = np.random.default_rng(5)
    lin = np.linspace(-20.0, 20.0, 300)
    densed = {
        "scattered": rng.uniform(-30.0, 30.0, 200) + 1j * rng.uniform(0.0, 3.0, 200),
        "short run": np.linspace(-5.0, 5.0, m - 1),
        "complex step": (0.5 + 1j) + (0.1 + 0.05j) * np.arange(100),
        "perturbed linspace": lin + 1e-9 * rng.standard_normal(lin.size),
    }
    for name, z in densed.items():
        entries.clear()
        got = rep.psi(z)
        assert sum(entries) == z.size * nodes, f"{name}: {sum(entries)} dense entries"
        ref = np.exp(-0.3j) + dense_transform(rep.g, z, rep._cuts)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12, name
    # below _RUN_MIN points no run can exist: neither pass looks for one
    z = np.array([0.5, 1.0, 1.5])
    want = rep.psi(z)
    searched, runs = [], core._arithmetic_runs
    monkeypatch.setattr(core, "_arithmetic_runs", lambda *a: searched.append(a) or runs(*a))
    assert np.array_equal(rep.psi(z), want)
    assert not searched, "a 3-point call looked for arithmetic runs"


@pytest.mark.parametrize("n", [1024, 4096])
def test_chirp_work_pinned(monkeypatch, n):
    # the rows of validate_class's 33 x 81 psi lattice are one group of
    # equal runs: one FFT of the shared chirp kernel, then one FFT pair per
    # batch of (row, node block) rows.  No FFT is longer than 2^12, each
    # batch is filled up to core._CHIRP_BATCH entries, so the call count
    # grows with the rows only when a batch is full, and the traced peak
    # stays small
    rep = jost_kernel_direct(random_piecewise_potential(1, n=n), BoundaryParam(0.3))
    core.validate_class(rep)                # cut detection is cached on the rep
    shapes = []

    def counted(inner):
        return lambda a, size=None, *args, **kw: (
            shapes.append(np.shape(a)[:-1] + (np.shape(a)[-1] if size is None else size,))
            or inner(a, size, *args, **kw))

    for name in ("fft", "ifft"):
        monkeypatch.setattr(core.np.fft, name, counted(getattr(core.np.fft, name)))
    tracemalloc.start()
    try:
        core.validate_class(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak / 2 ** 20
    assert max(s[-1] for s in shapes) <= 2 ** 12
    lattice = shapes.copy()
    counts = {}
    re = np.linspace(-12.0, 12.0, 81)
    for rows in (1, 2, 4, 8, 16, 32, 33, 64):
        shapes.clear()
        rep.psi((re[None, :] + 1j * np.linspace(0.0, 12.0, rows)[:, None]).ravel())
        counts[rows] = len(shapes)
    assert counts[1] == counts[2] == 3 and len(lattice) == counts[33], counts
    batch = max(s[0] for s in shapes if len(s) == 3)      # rows of a full batch, 64 rows in all
    _, blocks, length = next(s for s in shapes if len(s) == 3)
    assert batch * blocks * length <= core._CHIRP_BATCH < (batch + 1) * blocks * length
    assert all(math.prod(s) <= core._CHIRP_BATCH for s in lattice + shapes)
    assert counts == {rows: 1 + 2 * -(-rows // batch) for rows in counts}, (batch, counts)


def test_exact_search_transcendental_free(monkeypatch):
    # the exact-piece search of test_exact_search_work_pinned takes its
    # segment exponentials by halving and doubling the series: no sqrt,
    # cosh or sinh, and the same contour and polish work
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("sqrt", "cosh", "sinh"):
                return attr
            return lambda *args, **kw: calls.append(name) or attr(*args, **kw)

    ev = forward.make_psi_evaluator(random_piecewise_potential(3, n=1024), BoundaryParam(0.3))
    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return ev(z)

    monkeypatch.setattr(forward, "np", CountingNumpy())
    R = find_resonances(counted, SearchRegion(-6, 6, -3, 0))
    assert not calls, sorted(set(calls))
    assert (len(sizes), sum(sizes)) == (5, 1565)
    assert R.multiplicities().tolist() == [1, 1, 1, 1]


def test_kernel_extraction_work_pinned(monkeypatch):
    # jost_kernel's passes share what depends only on the band z and the
    # cut nodes: the Filon weights once per call, the end phases once per
    # cut round; no pass forms phases through _dense_plain
    q = random_piecewise_potential(1, n=1024)
    events = []

    def counted(mod, name, tag):
        inner = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, **k: events.append((tag, a)) or inner(*a, **k))

    counted(forward, "_band_sum", "pass")
    counted(forward, "_cut_nodes", "round")
    counted(forward, "_linear_transform", "phases")
    counted(core, "_dense_plain", "dense")
    counted(core, "_filon_weights", "filon")
    if hasattr(forward, "_filon_weights"):     # imported there by name
        counted(forward, "_filon_weights", "filon")
    forward.jost_kernel(q, BoundaryParam(0.3))
    tags = [tag for tag, _ in events]
    first, last = tags.index("pass"), len(tags) - 1 - tags[::-1].index("pass")
    rounds = tags.count("round")
    assert rounds >= 1 and tags.count("pass") == 60 * rounds
    assert tags.count("phases") == rounds
    assert "dense" not in tags[first:last + 1], "a pass formed phases through _dense_plain"
    band = forward.fourier_band(q.gamma, q.grid.h, 400.0 * np.pi / q.gamma, 2 * q.grid.n)
    sizes = sorted(a[0].size for tag, a in events if tag == "filon")
    # the band's once, and the held-out rep.psi's (241 points) once
    assert sizes == [241, band.size], sizes


def _count_ffts(monkeypatch) -> list[int]:
    """Record the length of every np.fft.fft and np.fft.ifft call."""
    sizes = []

    def counted(inner):
        return lambda a, size=None, *args, **kw: (
            sizes.append(len(a) if size is None else size) or inner(a, size, *args, **kw))

    for name in ("fft", "ifft"):
        monkeypatch.setattr(inverse.np.fft, name, counted(getattr(inverse.np.fft, name)))
    return sizes


@pytest.mark.parametrize("n", [1024, 4096])
def test_wiener_work_pinned(monkeypatch, n):
    # invert_wiener solves the banded Toeplitz system in blocks of
    # m = n_g + 1: 1/c to m terms by Newton (two 3-FFT products per
    # doubling), the spectra of b and c, then two products per block, the
    # first block's one FFT pair short; the longest FFT is the 5-smooth
    # length of a block product, and the traced peak stays within a few
    # copies of h
    rep = jost_kernel_direct(random_piecewise_potential(1, n=n), BoundaryParam(0.3))
    sizes = _count_ffts(monkeypatch)
    tracemalloc.start()
    try:
        wi = inverse.invert_wiener(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n_h = rep.g.grid.n + 1, wi.h.grid.n
    blocks = -(-(n_h + 1) // m)
    assert max(sizes) == core._fft_len(2 * m - 1), max(sizes)
    assert len(sizes) == 6 * math.ceil(math.log2(m)) + 4 * blocks, (len(sizes), blocks)
    # measured 3.6 copies of h's samples at n = 1024 and 4096
    assert peak <= 4.5 * wi.h.values.nbytes, peak / wi.h.values.nbytes


@pytest.mark.parametrize("n", [1024, 4096])
def test_glm_work_pinned(monkeypatch, n):
    # the x = 0 line solve takes the spectrum of the reversed k once, then
    # one FFT pair per Hankel product: two per CG iteration, one for a and
    # one for the block residual, all at the 5-smooth length of the linear
    # product
    rep = jost_kernel_direct(random_piecewise_potential(1, n=n), BoundaryParam(0.3))
    k = inverse.omega_kernel(inverse.scattering_kernel(rep, t_max=0.0))
    sizes = _count_ffts(monkeypatch)
    its = inverse._solve_glm_line0(k)[3]
    assert len(sizes) == 4 * its + 5, (len(sizes), its)
    assert set(sizes) == {core._fft_len(2 * n + 1)}, set(sizes)


# fields of a node whose code runs on some paths only
_SOME_PATHS = {ast.If: ("body", "orelse"), ast.IfExp: ("body", "orelse"),
               ast.While: ("body", "orelse"), ast.For: ("body", "orelse"),
               ast.Try: ("handlers", "orelse"), ast.Lambda: ("body",),
               ast.ListComp: ("elt", "generators"), ast.SetComp: ("elt", "generators"),
               ast.GeneratorExp: ("elt", "generators"),
               ast.DictComp: ("key", "value", "generators")}


def _reads_on_every_path(node, arg):
    """Attributes of the name `arg` read on every path through `node`: not
    inside a branch, loop body, exception handler, comprehension or lambda,
    nor after the first operand of `and`/`or`."""
    reads = set()

    def visit(n, every):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == arg:
            if every:
                reads.add(n.attr)
            return
        some = _SOME_PATHS.get(type(n), ())
        for field, value in ast.iter_fields(n):
            children = value if isinstance(value, list) else [value]
            for i, child in enumerate(children):
                if isinstance(child, ast.AST):
                    later = isinstance(n, ast.BoolOp) and i > 0
                    visit(child, every and field not in some and not later)

    for stmt in node.body:
        visit(stmt, True)
    return reads


def test_cli_handlers_read_their_flags():
    # each cmd_* handler reads exactly its subcommand's row of cli.COMMANDS,
    # plus --out, from its arguments: a flag that nothing reads cannot come
    # back, and a flag a handler reads cannot go missing from the table.
    # Each flag of the row is read on every path through the handler, so a
    # flag read in one mode or for one input kind only cannot hide in a row
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = {fn.name: fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")}
    for cmd, (fn, _, positionals, flags) in cli.COMMANDS.items():
        node = handlers.pop(fn.__name__)
        arg = node.args.args[0].arg
        uses = [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == arg]
        attrs = [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == arg]
        # the arguments are never passed on whole, where reads would hide
        assert len(uses) == len(attrs), f"{fn.__name__} passes {arg} on"
        reads = {n.attr for n in attrs} - set(positionals)
        row = {f.replace("-", "_") for f in (*flags, "out")}
        assert reads == row, f"{cmd} reads {sorted(reads)}, its row is {sorted(row)}"
        some = row - _reads_on_every_path(node, arg)
        assert not some, f"{cmd} reads {sorted(some)} on some paths only"
    assert not handlers, f"handlers of no subcommand: {sorted(handlers)}"


def _defaulted(fn):
    """(position, name) of each parameter of `fn` that has a default; a
    keyword-only one has position None, and a method's position does not
    count self."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    shift = 1 if pos and pos[0].arg in ("self", "cls") else 0
    out = [(i - shift, pos[i].arg) for i in range(first, len(pos))]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


# the functions and classes of dirachl that take a horizon; the GLM reads F
# on [-gamma, 0] only, so recovery, surgery, invert and move take none
_HORIZON_TAKERS = {"inverse.invert_wiener", "inverse.scattering_kernel",
                   "inverse.potential_to_scattering", "core._check_t_max"}


def test_horizon_only_where_it_changes_the_answer():
    found = set()
    for path in sorted(Path(dirachl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
            elif isinstance(node, ast.ClassDef):
                names = {s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            else:
                continue
            if names & {"t_max", "t_h"}:
                found.add(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
    assert found == _HORIZON_TAKERS, sorted(found ^ _HORIZON_TAKERS)
    assert [cmd for cmd, row in cli.COMMANDS.items() if "tmax" in row[3]] == ["check"]


def test_containers_hold_no_copy_of_their_grid():
    # gamma and t_max are where the samples' grid starts or ends, so the
    # containers read them from the grid instead of storing them beside it
    for cls in (core.Potential, core.JostRep, core.ScatteringRep):
        names = {f.name for f in dataclasses.fields(cls)}
        assert not names & {"gamma", "t_max"}, (cls.__name__, sorted(names))


def test_defaults_have_callers():
    # every defaulted parameter of a dirachl function is set, by keyword or
    # by position, by some call in the library, the benchmark or the
    # acceptance suite: a default nothing overrides is a fixed value, which
    # belongs in the code, not in the signature
    root = Path(__file__).parents[1]
    callers = [*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py"),
               root / "tests" / "test_acceptance.py"]
    passed = {}     # callee name -> (keywords, most positional arguments)
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            kws, most = passed.setdefault(name, (set(), 0))
            kws.update(k.arg for k in node.keywords if k.arg)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed[name] = (kws, math.inf if starred else max(most, len(node.args)))
    unset = []
    for path in sorted((root / "src" / "dirachl").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            kws, most = passed.get(fn.name, (set(), 0))
            unset += [f"{path.stem}.{fn.name}({name})" for i, name in _defaulted(fn)
                      if name not in kws and (i is None or most <= i)]
    assert not unset, f"defaults that no call sets: {unset}"


def _reads(tree):
    """The names a module reads, as a name or an attribute, except where
    they are read inside a definition of the same name."""
    out = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)
    walk(tree, frozenset())
    return out


def test_public_names_have_callers():
    # every name in an __all__ of dirachl, and every public method and
    # property of a class there, is read by the library outside its own
    # definition, by the benchmark or by the acceptance suite: a public
    # name that only its unit tests read is API nobody uses
    root = Path(__file__).parents[1]
    callers = [*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py"),
               root / "tests" / "test_acceptance.py"]
    read = set().union(*(_reads(ast.parse(path.read_text())) for path in callers))
    public = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for n in getattr(mod, "__all__", []):
            public.append((f"{name}.{n}", n))
            obj = getattr(mod, n)
            if isinstance(obj, type):
                public += [(f"{name}.{n}.{m}", m) for m, v in vars(obj).items()
                           if not m.startswith("_") and isinstance(
                               v, (types.FunctionType, property, staticmethod, classmethod))]
    unread = [full for full, n in public if n not in read]
    assert not unread, f"public names with no caller: {unread}"
