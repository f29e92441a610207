"""Benchmark workloads: seeded inputs, the CLI calls of one pass, and output checks.

A workload writes its inputs (sweep configs, operator files) with the
benchmark's own NumPy code, so the program under test only ever sees files.
One pass is a list of jobs, each one `liplab.cli.main(argv)` call that covers
a known number of units (sweep instances or certificates).  After the pass the
parent process checks every unit outside the timed region; a unit fails if its
job raised or exited nonzero, or if the unit fails a check.

The checks are of two kinds.  Invariant checks (counts, finiteness, rank
budgets, each certificate re-checked against the benchmark's own SVD) run on
every seed.  At DEFAULT_SEED the values are also compared with the stored
reference in reference/<workload>/ to REL_TOL relative; byte-identity with the
reference is counted, not required, because declared last-ulp changes are
allowed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 1
REL_TOL = 1e-9
# Rounding-level residuals carry no relative precision; they are compared at
# the absolute scale of their contract instead.
ABS_TOL = {"bs_residual": 1e-9}

# The acceptance battery's piecewise-linear function: 41 breakpoints on
# [-2.5, 2.5] with slopes from seed 101.  It is part of the workload, not of
# the seeded inputs: its slopes change the spectra and with them the LAPACK
# time, so drawing it per seed would add run-to-run spread.
PWL = {"kind": "pwl", "breakpoints": [float(x) for x in np.linspace(-2.5, 2.5, 41)],
       "seed": 101}
SWEEP_DIMS = [32, 64, 128, 256, 512]
N_VALUES = [4, 8, 16, 32, 64]


@dataclass(frozen=True)
class Job:
    argv: list
    units: int
    output: str


@dataclass
class CheckResult:
    unit_ok: list
    problems: list
    byte_identical: int
    defect_rank_sum: int


def write_operator(path: Path, seed: int, atoms: int, function: dict,
                   sections=("MU", "NU")) -> None:
    """Random operator file in liplab's MU/NU/FUNCTION format.

    Same distribution as liplab.rng.random_kernel_operator: positions uniform
    in [-3, 3], masses uniform in [0.5, 1.5] / atoms, Gaussian weights with a
    5% share boosted by a factor in [3, 10].
    """
    rng = np.random.default_rng([int(seed), atoms])
    lines = []
    for name in ("MU", "NU"):
        pos = rng.uniform(-3.0, 3.0, atoms)
        while np.unique(pos).size != atoms:
            pos = rng.uniform(-3.0, 3.0, atoms)
        masses = rng.uniform(0.5, 1.5, atoms) / atoms
        weights = rng.standard_normal(atoms)
        spikes = rng.random(atoms) < 0.05
        weights = np.where(spikes, weights * rng.uniform(3.0, 10.0, atoms), weights)
        if name in sections:
            lines.append(name)
            lines += [f"{x!r} {m!r} {w!r}" for x, m, w in
                      zip(pos.tolist(), masses.tolist(), weights.tolist())]
    lines += ["FUNCTION", json.dumps(function, sort_keys=True)]
    path.write_text("\n".join(lines) + "\n")


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return False


def _matches(value, ref, key=None) -> bool:
    """Structural equality with numbers compared to REL_TOL (ABS_TOL per key)."""
    if isinstance(ref, dict):
        return (isinstance(value, dict) and value.keys() == ref.keys()
                and all(_matches(value[k], ref[k], k) for k in ref))
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_matches(v, r, key) for v, r in zip(value, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL.get(key, 0.0)))
    return value == ref


def _read_csv(path: Path) -> list:
    def number(text):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text
    with open(path, newline="") as fh:
        return [{k: number(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _load(path: Path):
    if path.suffix == ".csv":
        return _read_csv(path)
    with open(path) as fh:
        return json.load(fh)


def _fits_certificate(spectrum, rank: int, bound: float, observed: float) -> bool:
    """s_rank of the benchmark's own spectrum is below the bound and matches the report."""
    own = float(spectrum[rank]) if rank < spectrum.size else 0.0
    slack = 1e-9 * max(1.0, float(spectrum[0]))
    return own <= bound + slack and abs(own - observed) <= slack


class Workload:
    """Base class: subclasses define inputs, jobs and per-unit checks."""

    name = ""
    operators = 0
    has_reference = True

    def make_inputs(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def jobs(self, workdir: Path) -> list:
        raise NotImplementedError

    def prepare(self, seed: int, inputs: Path, liplab) -> dict:
        """Data the checks need that does not depend on the pass (own spectra)."""
        return {}

    def check_job(self, job: Job, data, seed: int, prepared: dict) -> list:
        """One boolean per unit of the job, from its parsed output."""
        raise NotImplementedError

    @property
    def units(self) -> int:
        return sum(job.units for job in self.jobs(Path(".")))

    def check(self, workdir: Path, exit_codes: list, seed: int, prepared: dict) -> CheckResult:
        unit_ok, problems = [], []
        identical = 0
        rank_sum = 0
        for job, code in zip(self.jobs(workdir), exit_codes):
            out = Path(job.output)
            if code != 0 or not out.is_file():
                problems.append(f"{out.name}: exit {code}")
                unit_ok += [False] * job.units
                continue
            try:
                data = _load(out)
            except (ValueError, OSError) as exc:
                problems.append(f"{out.name}: unreadable ({exc})")
                unit_ok += [False] * job.units
                continue
            try:
                oks = self.check_job(job, data, seed, prepared)
                rank_sum += self.defect_rank_sum(data)
            except (KeyError, TypeError, IndexError) as exc:
                problems.append(f"{out.name}: malformed ({exc!r})")
                unit_ok += [False] * job.units
                continue
            if seed == DEFAULT_SEED and self.has_reference:
                ref = REFERENCE_DIR / self.name / out.name
                identical += ref.is_file() and ref.read_bytes() == out.read_bytes()
                oks = self._match_reference(data, _load(ref) if ref.is_file() else None, oks)
            if not all(oks):
                problems.append(f"{out.name}: {oks.count(False)} units failed checks")
            unit_ok += oks
        return CheckResult(unit_ok, problems, identical, rank_sum)

    def _match_reference(self, data, ref, oks: list) -> list:
        records, ref_records = self.records(data), self.records(ref) if ref else None
        if not records or ref_records is None or len(ref_records) != len(records):
            return [False] * len(oks)
        per = len(oks) // len(records)
        return [ok and _matches(records[i // per], ref_records[i // per])
                for i, ok in enumerate(oks)]

    def records(self, data) -> list:
        """The output's per-record list, aligned with the job's units."""
        return data

    def defect_rank_sum(self, data) -> int:
        return 0


class SweepDOI(Workload):
    """Four dense DOI sweeps: eigh, SVD and QR do most of the work."""

    name = "sweep_doi"
    ensemble = 5
    experiments = (
        ("rank_one", False, {}),
        ("trace_class", False, {}),
        ("matsaev", True, {}),
        ("interp", True, {"p": 1.0, "epsilon": 0.5}),
    )

    def make_inputs(self, seed, workdir):
        for experiment, pwl, extra in self.experiments:
            config = {"experiment": experiment, "dimensions": SWEEP_DIMS,
                      "ensemble": self.ensemble, "seed": int(seed),
                      "function": PWL if pwl else {"kind": "abs"},
                      "format": "csv", **extra}
            (workdir / f"{experiment}.json").write_text(json.dumps(config, sort_keys=True))

    def jobs(self, workdir):
        return [Job(["sweep", "--config", str(workdir / f"{e}.json"),
                     "--out", str(workdir / f"{e}.csv")],
                    self.ensemble * len(SWEEP_DIMS), str(workdir / f"{e}.csv"))
                for e, _, _ in self.experiments]

    def check_job(self, job, rows, seed, prepared):
        expected = [(d, i) for d in SWEEP_DIMS for i in range(self.ensemble)]
        if [(r.get("dimension"), r.get("instance")) for r in rows] != expected:
            return [False] * job.units
        return [_finite_numbers(r) and r["rho"] >= 0.0 for r in rows]


class CertifyLarge(Workload):
    """`liplab certify` on one 2400-atom operator: memory and the big SVD."""

    name = "certify_large"
    atoms = 2400
    operators = 1

    def make_inputs(self, seed, workdir):
        write_operator(workdir / "operator.txt", seed, self.atoms, {"kind": "abs"})

    def jobs(self, workdir):
        return [Job(["certify", "--input", str(workdir / "operator.txt"),
                     "--n", ",".join(map(str, N_VALUES)), "--out", str(workdir / "certs.json")],
                    len(N_VALUES), str(workdir / "certs.json"))]

    def prepare(self, seed, inputs, liplab):
        kop = liplab.read_kernel_operator(str(inputs / "operator.txt"))
        return {"spectrum": np.linalg.svd(liplab.materialize(kop), compute_uv=False)}

    def records(self, data):
        return data.get("certificates", []) if isinstance(data, dict) else []

    def check_job(self, job, data, seed, prepared):
        certs = self.records(data)
        if [c.get("n") for c in certs] != N_VALUES:
            return [False] * job.units
        spectrum = prepared["spectrum"]
        return [_finite_numbers(c) and c["verification"]["passed"] is True
                and c["defect_rank"] <= 7 * c["n"]
                and c["empirical_bound"] <= c["analytic_bound"] * (1.0 + REL_TOL)
                and _fits_certificate(spectrum, c["defect_rank"], c["empirical_bound"],
                                      c["verification"]["singular_value"])
                for c in certs]

    def defect_rank_sum(self, data):
        return sum(c["defect_rank"] for c in self.records(data))


class CertifyBattery(Workload):
    """One certificate sweep over 20 small-to-mid operators."""

    name = "certify_battery"
    dims = [64, 128, 256, 512, 1024]
    ensemble = 4

    @property
    def operators(self):
        return len(self.dims) * self.ensemble

    def make_inputs(self, seed, workdir):
        config = {"experiment": "certificate", "dimensions": self.dims,
                  "ensemble": self.ensemble, "seed": int(seed),
                  "function": PWL, "format": "json"}
        (workdir / "battery.json").write_text(json.dumps(config, sort_keys=True))

    def jobs(self, workdir):
        return [Job(["sweep", "--config", str(workdir / "battery.json"),
                     "--out", str(workdir / "battery_report.json")],
                    self.operators * len(N_VALUES), str(workdir / "battery_report.json"))]

    def prepare(self, seed, inputs, liplab):
        # The sweep keys each operator's stream by (seed, experiment tag,
        # atoms, instance), so the benchmark can rebuild every operator.
        tag = liplab.sweeps.EXPERIMENTS.index("certificate") + 1
        f = liplab.function_from_spec(PWL)
        spectra = {}
        for atoms in self.dims:
            for idx in range(self.ensemble):
                kop = liplab.random_kernel_operator(liplab.make_rng(seed, tag, atoms, idx),
                                                    f, atoms, atoms)
                spectra[atoms, idx] = np.linalg.svd(liplab.materialize(kop), compute_uv=False)
        return {"spectra": spectra}

    def records(self, data):
        return data.get("rows", []) if isinstance(data, dict) else []

    def check_job(self, job, data, seed, prepared):
        rows = self.records(data)
        expected = [(a, i) for a in self.dims for i in range(self.ensemble)]
        if [(r.get("atoms"), r.get("instance")) for r in rows] != expected:
            return [False] * job.units
        oks = []
        for row in rows:
            spectrum = prepared["spectra"][row["atoms"], row["instance"]]
            finite = _finite_numbers(row)
            for n in N_VALUES:
                rank, bound = row[f"rank_n{n}"], row[f"bound_n{n}"]
                oks.append(finite and rank <= 7 * n
                           and bound <= row[f"analytic_n{n}"] * (1.0 + REL_TOL)
                           and _fits_certificate(spectrum, rank, bound, row[f"s_r_n{n}"]))
        return oks

    def defect_rank_sum(self, data):
        return sum(r[f"rank_n{n}"] for r in self.records(data) for n in N_VALUES)


class MissingSectionControl(CertifyLarge):
    """Negative control for the harness: an operator file without its NU section.

    Its first job must exit 2 and count as one failed unit; the second job on
    a valid small operator must still run and pass.
    """

    name = "control_missing_nu"
    atoms = 120
    has_reference = False

    def make_inputs(self, seed, workdir):
        write_operator(workdir / "broken.txt", seed, self.atoms, {"kind": "abs"}, sections=("MU",))
        write_operator(workdir / "operator.txt", seed, self.atoms, {"kind": "abs"})

    def jobs(self, workdir):
        return [Job(["certify", "--input", str(workdir / "broken.txt"), "--n", "4",
                     "--out", str(workdir / "broken.json")], 1, str(workdir / "broken.json"))
                ] + super().jobs(workdir)


WORKLOADS = {w.name: w for w in (SweepDOI(), CertifyLarge(), CertifyBattery())}
CONTROLS = {w.name: w for w in (MissingSectionControl(),)}
