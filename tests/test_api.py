"""Every public name, parameter and result field of the package has a user
inside the package.

Three scans parse every module except ``__init__.py`` (whose re-exports are
not uses), and each fails on what serves only the tests: dead code, a test
oracle that belongs in the tests, or an option that doubles the
configurations to test for no caller.

- Names: a public top-level function or class, or a public method, counts
  as used when its name appears as an ``ast.Name`` or as the attribute of
  an ``ast.Attribute`` anywhere in the package.
- Parameters: a defaulted parameter of a function, or a defaulted field of
  a dataclass (a constructor parameter), counts as used when some call in
  the package passes it, by keyword or by position.  Calls are resolved by
  the function or class name they call, through an attribute or not.  A
  call through a local name (a callable held in a variable) counts for
  every parameter of each keyword it passes, and a ``**kwargs`` call
  counts for every parameter of its callee.  Special methods such as
  ``__array__`` are skipped: Python or numpy calls them.
- Fields: a dataclass field counts as read when it appears as the
  attribute of a loaded ``ast.Attribute``, or as a ``getattr`` string.

The scans match names, not bindings, so they only find what nothing in the
package uses: a public name, a parameter or a field that another binding
of the same name shares passes unseen (an unread ``seed`` field on a
result would hide behind every ``cfg.seed``).
``EXEMPT`` lists what is kept on purpose, with the reason; an exemption
that no longer names a flagged item fails the test.
"""

import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import numpy as np
import pytest

import isacsim

PACKAGE = Path(isacsim.__file__).parent

EXEMPT = {
    "cli.main(argv)": "the console entry point; the interpreter passes "
                      "sys.argv when argv is None, the tests pass a list",
    "downlink.estimate_mean_covariance(trials)":
        "bench/ estimates a small covariance with it; it goes with "
        "_sigma_cache (ROADMAP item 1)",
    "downlink.MeanInputCovariance.trials_used":
        "bench/ counts the covariance trials from it; it goes with "
        "_sigma_cache (ROADMAP item 1)",
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _public(tree):
    # (qualified name, bare name) of each public definition of one module
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _used(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    used = _used(modules.values())
    unused = [f"{module}.{qualified}"
              for module, tree in modules.items()
              for qualified, name in _public(tree) if name not in used]
    assert unused == []


# ---------------------------------------------------------------------------
# Parameters and fields
# ---------------------------------------------------------------------------

def _decorator_names(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        yield dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)


def _field_options(value):
    # the keywords of a ``field(...)`` declaration, or None for a plain default
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return {k.arg: k.value for k in value.keywords}
    return None


class _Callable:
    """One function or dataclass: its parameters in positional order, the
    defaulted ones, and (for a dataclass) its fields."""

    def __init__(self, label, positional, keyword_only, defaulted, fields=()):
        self.label = label
        self.positional = positional
        self.params = positional + keyword_only
        self.defaulted = defaulted
        self.fields = fields
        self.passed = set()


def _function(label, node, method):
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]  # self or cls, bound by the call
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return _Callable(label, positional, [a.arg for a in args.kwonlyargs], defaulted)


def _dataclass(label, node):
    # its fields in order; a field(init=False) is no constructor parameter
    fields, init, defaulted = [], [], []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        name, options = item.target.id, _field_options(item.value)
        fields.append(name)
        if options is not None and getattr(options.get("init"), "value", True) is False:
            continue
        init.append(name)
        if (item.value is not None if options is None
                else {"default", "default_factory"} & options.keys()):
            defaulted.append(name)
    return _Callable(label, init, [], defaulted, fields)


def _definitions(trees):
    # bare name -> every function and dataclass of that name in the package
    defs = {}

    def visit(module, prefix, body, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                special = node.name.startswith("__") and node.name.endswith("__")
                if not special:
                    label = f"{module}.{prefix}{node.name}"
                    defs.setdefault(node.name, []).append(
                        _function(label, node, in_class))
                visit(module, f"{prefix}{node.name}.", node.body, False)
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in _decorator_names(node):
                    defs.setdefault(node.name, []).append(
                        _dataclass(f"{module}.{prefix}{node.name}", node))
                visit(module, f"{prefix}{node.name}.", node.body, True)

    for module, tree in trees.items():
        visit(module, "", tree.body, False)
    return defs


def _local_callee(call, imported):
    # whether a call not resolved to a package definition goes through a
    # variable: a bare name that is neither imported nor a builtin
    return (isinstance(call.func, ast.Name) and call.func.id not in imported
            and not hasattr(builtins, call.func.id))


def _unused_options(trees):
    """Labels of the defaulted parameters that no call in ``trees`` passes,
    as ``module.function(param)``, and of the dataclass fields that nothing
    reads, as ``module.Class.field``."""
    defs = _definitions(trees)
    everything = [d for group in defs.values() for d in group]
    imported, reads = set(), set()
    calls = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call):
                calls.append(node)
                if (getattr(node.func, "id", None) == "getattr" and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {k.arg for k in call.keywords}
        if name in defs:
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for d in defs[name]:
                if None in keywords:  # **kwargs reaches every parameter
                    d.passed.update(d.params)
                n = len(d.positional) if starred else len(call.args)
                d.passed.update(d.positional[:n])
                d.passed.update(keywords)
        elif _local_callee(call, imported):
            for d in everything:
                d.passed.update(keywords)
    unused = {f"{d.label}({p})" for d in everything for p in d.defaulted
              if p not in d.passed}
    unused |= {f"{d.label}.{f}" for d in everything for f in d.fields if f not in reads}
    return unused


def test_no_parameter_or_field_serves_only_the_tests():
    flagged = _unused_options(_modules())
    assert sorted(flagged - set(EXEMPT)) == []


def test_every_exemption_names_a_flagged_item():
    assert sorted(set(EXEMPT) - _unused_options(_modules())) == []


SAMPLE = '''
from dataclasses import dataclass, field
from functools import partial


@dataclass(frozen=True)
class Result:
    value: float
    note: str
    scale: float = 1.0
    cache: dict = field(default=None, init=False)


def solve(x, scale=1.0, shift=0.0, *, mode="fast"):
    return Result(x * scale + shift, "ok", scale=scale)


def fit(data, weights=None, order=1):
    return data


def mean(xs, axis=0):
    return xs


def run(step=1.0, **kw):
    pair = ([], 0)
    return fit([], **kw), mean(*pair), solve(2.0, 3.0).value + step


def sweep(fn=solve):
    go = partial(fn)
    return go(0.0, shift=1.0, mode="slow").cache, run(0.5), Result(1.0, "").scale
'''


def test_the_scan_reports_an_unused_option_and_an_unread_field():
    # Passed: solve(scale) and run(step) by position, Result(scale) by
    # keyword, fit(weights, order) by **kw, mean(axis) by a starred call,
    # solve(shift, mode) through the local name go.  Not passed: sweep(fn).
    # Read: Result.value, .scale and .cache.  Not read: Result.note.
    flagged = _unused_options({"sample": ast.parse(SAMPLE)})
    assert flagged == {"sample.sweep(fn)", "sample.Result.note"}


# ---------------------------------------------------------------------------
# The surface the benchmark's tracer binds
# ---------------------------------------------------------------------------

def _bench_tracer():
    # bench/tracer.py, loaded from its file without touching bench/
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_function(qualified):
    layer, name = qualified.split(".")
    return getattr(importlib.import_module(f"isacsim.{layer}"), name)


def _shortcut_args(name):
    # the tracer's SHORTCUT_ARGS an estimator takes: p_c on every one, the
    # target on the outage estimators, alpha on the FDSAC ones
    return ({"p_c"} | ({"r_target"} if "outage" in name else set())
            | ({"alpha"} if "fdsac" in name else set()))


def test_the_bench_tracer_still_binds_what_it_counts():
    # The tracer wraps each function of TRACED, keyed by the function object,
    # counts trials by binding the estimators' SHORTCUT_ARGS by name, reads
    # the covariance estimate's p_c and trials_used, and counts region points
    # by len(result.grid).  A rename, a deletion or an alias here would break
    # its spans or its trial count, which only bench/tests would see.
    tracer = _bench_tracer()
    traced = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
              for name in names]
    functions = {name: _package_function(name) for name in traced}
    for name, fn in functions.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == "isacsim." + name.split(".")[0], name
    assert len(set(functions.values())) == len(traced)
    from isacsim.region import RateRegion
    assert "grid" in {f.name for f in dataclasses.fields(RateRegion)}
    estimators = tracer.DL_MC + tracer.UL_MC + (tracer.COVARIANCE,)
    originals = {name: _package_function(name) for name in estimators}
    for names in (None, tracer.COUNTED):
        spans = tracer.Tracer(names).install()
        try:
            for name in estimators:
                wrapped = _package_function(name)
                assert wrapped is not originals[name], name
                params = set(inspect.signature(wrapped).parameters)
                assert _shortcut_args(name) <= params, name
        finally:
            spans.uninstall()
        assert {name: _package_function(name) for name in estimators} == originals
    from isacsim.downlink import MeanInputCovariance
    fields = {f.name for f in dataclasses.fields(MeanInputCovariance)}
    assert {"p_c", "trials_used"} <= fields
    # the tracer reads the sampler's block key by name
    sampler = inspect.signature(_package_function("channel.sample_channel_block"))
    assert {"seed", "block", "stream"} <= set(sampler.parameters)
    assert {arg for name in estimators for arg in _shortcut_args(name)} == \
        set(tracer.SHORTCUT_ARGS)


# The bench's tiny runs (bench/tests/test_bench.py) and the trials its gate
# expects of each
TINY = {
    "op_vs_snr": {"sweep_db": [10.0], "min_events": 5, "max_trials": 16384, "seed": 7},
    "region_dl": {"grid_size": 2, "trials": 1000, "seed": 7},
    "ecr_vs_snr": {"M": 3, "N": 3, "K": 3, "L": 4, "trials": 5, "sweep_db": [10.0],
                   "seed": 7},
}
# the bench's op_tail workload at seed 1234 (246 blocks)
OP_TAIL = {"sweep_db": [17.5, 20.0, 22.5, 25.0], "min_events": 250,
           "max_trials": 1_000_000, "seed": 1234}


@pytest.mark.parametrize("experiment, doc", [*TINY.items(), ("op_vs_snr", OP_TAIL)],
                         ids=[*TINY, "op_tail"])
def test_the_bench_trial_gate_counts_each_tiny_run(experiment, doc, tmp_path,
                                                   monkeypatch):
    # what the bench's tracers see in a run: no covariance cache hit, the
    # trials of the CSV and each block drawn once; at grid 2 the p_c = 0 and
    # alpha = 0 region points compute no trial, and the other ISAC point
    # adds a 10,000-trial mean covariance to its ECR trials.  The full
    # tracer wraps the rate kernels too; a declared point names no kernel,
    # so the traced kernel an estimator passes runs every declared point in
    # one pass
    from isacsim import cli
    from isacsim import downlink as dl

    tracer = _bench_tracer()
    cfg, params = cli.parse_config(doc)
    out = tmp_path / "out.csv"
    for names in (tracer.COUNTED, None):
        monkeypatch.setattr(dl, "_sigma_cache", {})  # cold, as in a fresh process
        counts = tracer.Tracer(names).install()
        try:
            assert cli.run(experiment, cfg, params, str(out)) == 0
        finally:
            counts.uninstall()
        assert counts.covariance_cache_hits == 0
        assert set(counts.block_keys.values()) == {1}
        if experiment == "region_dl":
            assert counts.trials_used == 2 * cfg.trials + 10_000
        else:
            rows = out.read_text().splitlines()[1:]
            assert counts.trials_used == sum(int(r.split(",")[-1]) for r in rows) > 0
    if doc is OP_TAIL:
        assert len(counts.block_keys) == 246
    if experiment == "ecr_vs_snr":
        # each link's points share one kernel call for its one block
        assert counts.stats["downlink.dual_mac_power_alloc"].calls == 1
        assert counts.stats["uplink.ul_rate_batch"].calls == 1


# ---------------------------------------------------------------------------
# Results that hold arrays
# ---------------------------------------------------------------------------

def _array_dataclasses():
    # every dataclass of the package with an np.ndarray field
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"isacsim.{path.stem}")
        for value in vars(module).values():
            if (inspect.isclass(value) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__
                    and np.ndarray in typing.get_type_hints(value).values()):
                found.append(value)
    return found


def test_a_result_that_holds_arrays_compares_by_identity():
    # a generated __eq__ compares the arrays, whose truth value raises, and
    # the generated __hash__ of a frozen class hashes them, which raises
    classes = _array_dataclasses()
    assert {c.__name__ for c in classes} >= {"MeanInputCovariance", "RateRegion"}
    for cls in classes:
        assert not cls.__dataclass_params__.eq, cls.__name__


def test_two_array_results_compare_and_hash():
    from isacsim.downlink import MeanInputCovariance
    from isacsim.region import RateRegion
    pairs = [(MeanInputCovariance(np.eye(2, dtype=complex), 10, 1.0),
              MeanInputCovariance(np.eye(2, dtype=complex), 10, 1.0)),
             (RateRegion("p_c", *[np.array([0.0, 1.0])] * 4),
              RateRegion("p_c", *[np.array([0.0, 1.0])] * 4))]
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
