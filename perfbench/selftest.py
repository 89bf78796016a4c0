"""Fast self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Generators at tiny sizes go through the real program and must satisfy their
oracles; oracles fed a wrong expected value must report a failure; the
tracer must restore every original it replaced; the workloads must be
deterministic in the seed; a wrong output must count as a failed operation;
and run.py must refuse to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import random
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import instances  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

CORPUS = ROOT / "src" / "orbimorse" / "corpus"
SCRATCH = ROOT / ".perfbench" / "selftest"


def tiny_cases(seed):
    """Every family at its smallest sizes, each kind of check once."""
    rng = random.Random(seed)
    cases = []
    for name, system, orbs in (("zp2", instances.zp_sphere(2),
                                instances.ring_orbits(2, False)),
                               ("dp3", instances.dp_sphere(3),
                                instances.ring_orbits(3, True))):
        cases.append(instances._gq_case(
            name, "homology", system, rng,
            {"betti_manifold": instances.S2, "betti_invariant": instances.S2,
             "orbits": orbs}))
    for name, system, order in (("zp3", instances.zp_sphere(3), 3),
                                ("dp3", instances.dp_sphere(3), 6)):
        for defect in ("flip", "endpoint"):
            cases.append(instances.diagnose_case(name, system, order, defect, rng))
    for m, rounds in ((1, 2), (2, 1), (3, 0)):
        cases.append(instances._simplicial_case(
            "polygon_%dx3" % m, instances.polygon(m, 3), rng,
            {"rounds": rounds, "betti": instances.CIRCLE,
             "betti_invariant": instances.CIRCLE}))
    cases.append(instances._simplicial_case(
        "wheel_2", instances.wheel(2), rng,
        dict(instances._DISC, betti_rel=[0, 0, 1], betti_invariant_rel=[0, 0, 1])))
    cases.append(instances._simplicial_case(
        "bipyramid_2", instances.bipyramid(2), rng,
        {"rounds": 0, "betti": instances.S2, "betti_invariant": instances.S2}))
    morse, _ = instances.transform_gq(instances.zp_sphere(2), rng)
    cases.append(instances.Case(
        "compare_zp2", "compare",
        {"kind": "comparison", "metadata": {},
         "morse": morse,
         "triangulation": instances.transform_simplicial(
             instances.bipyramid(2), rng)},
        {"rounds": 0, "betti_morse": instances.S2,
         "betti_quotient": instances.S2}))
    return cases


def write(cases):
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    for i, case in enumerate(cases):
        case.path = str(SCRATCH / ("%02d.json" % i))
        pathlib.Path(case.path).write_text(json.dumps(case.doc), encoding="utf-8")
    return cases


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.cli = run._import_cli()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def run_cases(self, cases):
        runner = run.Runner(self.cli)
        runner.round(cases)
        return runner

    def test_tiny_instances_pass_their_oracles(self):
        for seed in (1, 2, 3):
            runner = self.run_cases(write(tiny_cases(seed)))
            self.assertEqual((runner.failed, runner.wrong), (0, 0),
                             runner.messages)

    def test_probed_round_checks_every_probe(self):
        cases = write(tiny_cases(7))
        runner = run.Runner(self.cli)
        wall, times, probes = runner.round(cases, probe=True)
        self.assertEqual((len(times), len(probes)), (len(cases), len(cases)))
        self.assertEqual(wall, sum(times))
        self.assertEqual((runner.attempted, runner.failed),
                         (2 * len(cases), 0), runner.messages)

    def test_wrong_output_counts_as_failed(self):
        case = write(tiny_cases(6))[0]
        case.expect["betti_invariant"] = [1, 1, 1]
        runner = self.run_cases([case])
        self.assertEqual((runner.attempted, runner.failed, runner.wrong), (1, 1, 1))

    def test_ring_spheres_have_their_declared_size(self):
        for p in (2, 5):
            s = instances.zp_sphere(p)
            self.assertEqual((len(s["crit_points"]), len(s["flows"])),
                             (2 * p + 2, 4 * p))
        self.assertEqual(len(instances.dp_sphere(4)["generators"]), 2)

    def test_oracles_reject_wrong_expected_values(self):
        cases = write(tiny_cases(4))
        outputs = []
        for case in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(case.argv())
            outputs.append((case, code, out.getvalue()))
            self.assertEqual(oracles.check(case, code, out.getvalue()), [])

        def wrong(case, **changes):
            bad = copy.deepcopy(case)
            bad.expect.update(changes)
            return bad

        for case, code, text in outputs:
            exp = case.expect
            bad = []
            if "betti_invariant" in exp:
                bad.append(wrong(case, betti_invariant=[1, 1, 1]))
            if "orbits" in exp:
                members, idx, iso, ori = exp["orbits"][0]
                bad.append(wrong(case, orbits=[(members, idx, iso + 1, ori)]
                                 + exp["orbits"][1:]))
                bad.append(wrong(case, orbits=[(members, idx, iso, not ori)]
                                 + exp["orbits"][1:]))
            if "rounds" in exp:
                bad.append(wrong(case, rounds=exp["rounds"] + 1))
            if "violations" in exp:
                counts = dict(exp["violations"])
                counts["manifold_d_squared"] += 1
                bad.append(wrong(case, violations=counts))
                bad.append(wrong(case, flow="c1"))
            if "betti_rel" in exp:
                bad.append(wrong(case, betti_rel=[0, 0, 0]))
            self.assertTrue(bad, case.name)
            for b in bad:
                self.assertNotEqual(oracles.check(b, code, text), [],
                                    (case.name, b.expect))
            self.assertNotEqual(oracles.check(case, 4, text), [], case.name)

    def test_workloads_are_deterministic_in_the_seed(self):
        for wl in instances.WORKLOADS:
            a = instances.build(wl, 7, CORPUS)
            b = instances.build(wl, 7, CORPUS)
            c = instances.build(wl, 8, CORPUS)
            self.assertEqual([x.doc for x in a], [x.doc for x in b])
            self.assertNotEqual([x.doc for x in a], [x.doc for x in c])
            self.assertEqual([x.name for x in a], [x.name for x in c])

    def test_smallest_and_largest_instances(self):
        want = {"gq-sphere": ("sphere_trivial", "zp48"),
                "gq-diagnose": ("zp2_flip", "zp48_endpoint"),
                "tri-quotient": ("disc_reflect_d1", "torus_4x4")}
        for wl, (first, last) in want.items():
            names = [c.name for c in instances.build(wl, 1, CORPUS)]
            self.assertEqual((names[0], names[-1]), (first, last))

    def test_tracer_counts_and_restores(self):
        # orbimorse.quotient names the simplicial function re-exported by
        # the package, so the module is taken from sys.modules
        chaincx = sys.modules["orbimorse.chaincx"]
        quotient = sys.modules["orbimorse.quotient"]
        originals = (chaincx.betti, quotient.validate_system,
                     chaincx.RationalMatrix.__dict__["__mul__"])
        cases = write(tiny_cases(5))
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(chaincx.betti, originals[0])
            self.run_cases(cases)
        finally:
            tr.uninstall()
        self.assertEqual((chaincx.betti, quotient.validate_system,
                          chaincx.RationalMatrix.__dict__["__mul__"]), originals)
        must_validate = sum(1 for c in cases if c.doc["kind"] != "simplicial")
        self.assertGreaterEqual(tr.counts["quotient.validate_calls"],
                                must_validate)
        self.assertGreater(tr.counts["chaincx.matmul_cells"], 0)
        self.assertGreater(tr.counts["simplicial.has_calls"], 0)
        self.assertGreater(tr.self_s["quotient.validate"], 0)
        self.assertNotIn("op", tr.self_s)

    def test_run_refuses_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gq-sphere",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
