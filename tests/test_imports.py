"""Import contract: clrlab loads scipy's subpackages only when a routine uses one,
and opens the LAPACKE eigensolvers' library only when a spectrum needs it.

Each case runs in a fresh interpreter, since the test process itself has
long since imported every subpackage.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import clrlab

PACKAGE_ROOT = str(Path(clrlab.__file__).resolve().parents[1])

PRELUDE = """
import json, os, sys
import clrlab
from clrlab.harness.experiments import run_experiment
from clrlab.harness.reports import ExperimentConfig

def loaded():
    subs = ("sparse", "linalg", "special", "integrate", "optimize")
    return [s for s in subs if "scipy." + s in sys.modules]

def opened():
    # whether the LAPACKE eigensolvers' library was looked up or is mapped
    maps = ""
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    return (clrlab.lattice._lapacke_routines.cache_info().currsize > 0
            or "scipy.libs/libscipy_openblas-" in maps)
"""


def _children(codes, **env) -> list:
    """Run PRELUDE + each code in its own fresh interpreter, all at once.

    Returns the JSON value each one prints on its last stdout line.
    """
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", PRELUDE + code], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path, **env},
    ) for code in codes]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    return [json.loads(out.splitlines()[-1]) for out, _ in outs]


def test_import_and_matrix_experiments_load_no_scipy_subpackage():
    # nor open the LAPACKE eigensolvers' library
    [got] = _children(["""
stages = {"import": [loaded(), opened()]}
for name, trials in (("jensen", 5), ("holder", 5), ("timeorder-consistency", 5),
                     ("remark-probe", 50)):
    run_experiment(ExperimentConfig(experiment=name, trials=trials))
    stages[name] = [loaded(), opened()]
print(json.dumps(stages))
"""])
    assert got == dict.fromkeys(
        ["import", "jensen", "holder", "timeorder-consistency", "remark-probe"], [[], False])


def test_each_experiment_loads_the_subpackages_it_uses():
    # experiment, trials, subpackages it must load, subpackages it must not
    cases = [
        ("constants", None, {"special"}, set()),
        ("trotter", 1, {"integrate"}, set()),
        ("bs-equivalence", 2, {"sparse", "linalg", "special"}, {"integrate"}),
    ]
    got = _children([f"""
run_experiment(ExperimentConfig(experiment={name!r}, trials={trials!r}))
print(json.dumps(loaded()))
""" for name, trials, _, _ in cases])
    for (name, _, needs, not_needed), subs in zip(cases, got):
        assert needs <= set(subs) and not (not_needed & set(subs)), (name, subs)


def test_side_by_side_two_stage_spectra_match_the_serial_run():
    # Seed 2's first draw is a 7x7x7 box with N = 2: H and K are complex of
    # order 686, over the two-stage threshold.  BLAS is pinned, so with two
    # usable CPUs (forced here, as on a 2-CPU host) h_and_k_spectra takes
    # H's spectrum on its worker thread while this thread takes K's.  The
    # reference run takes the spectra one after the other; it is pinned
    # too, since BLAS threading changes K's spectrum at rounding level.
    code = """
from clrlab import config

config._usable_cpus = lambda: CPUS
assert config._SERIAL_BLAS
report = run_experiment(ExperimentConfig(experiment="bs-equivalence", trials=1, seed=2,
                                         grid_points=(7, 7, 7)))
print(json.dumps({"looked_up": clrlab.lattice._lapacke_routines.cache_info().currsize,
                  "report": {"records": report.records, "summary": report.summary}}))
"""
    pinned = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    side_by_side, serial = _children([code.replace("CPUS", cpus) for cpus in "21"], **pinned)
    assert {r["dim"] for r in serial["report"]["records"]} == {686}
    assert side_by_side["looked_up"] == serial["looked_up"] == 1
    assert side_by_side["report"]["summary"]["hard_failures"] == 0
    assert (json.dumps(side_by_side["report"], sort_keys=True)
            == json.dumps(serial["report"], sort_keys=True))


def test_every_exported_name_resolves_once():
    import clrlab.harness

    for module in (clrlab, clrlab.harness):
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_transforms_is_a_leaf_module():
    # the transforms take plain callables, so they need nothing from clrlab
    tree = ast.parse(Path(clrlab.transforms.__file__).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        assert not any(n == "clrlab" or n.startswith("clrlab.") for n in names), (
            ast.unparse(node))
