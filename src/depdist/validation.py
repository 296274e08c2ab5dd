"""Self-validation on artificially generated samples.

Draw one sample per model at the reference parameters, fit the whole
ensemble to each, and check that BIC selection recovers every generator and
that the estimated parameters land near the generating ones (q-like rates
within 0.03, the zeta exponent within 0.05, break point and truncation bound
exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import estimation, models as m, sampling
from .models import Model
from .treebank import DistanceSample

Q_TOLERANCE = 0.03
GAMMA_TOLERANCE = 0.05
# Parameters checked, by field name: integers must be recovered exactly.
TOLERANCES = {"q": Q_TOLERANCE, "q1": Q_TOLERANCE, "q2": Q_TOLERANCE,
              "gamma": GAMMA_TOLERANCE, "break_point": 0.0, "d_max": 0.0}


@dataclass
class ParamCheck:
    model: Model
    name: str
    true_value: float
    estimate: float
    error: float
    tolerance: float
    ok: bool


@dataclass
class ValidationReport:
    seed: int
    size: int
    suite: dict[Model, DistanceSample]
    selections: dict[Model, estimation.SelectionReport]
    best: dict[Model, Model]
    recovered: dict[Model, bool]
    param_checks: list[ParamCheck] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return all(self.recovered.values())

    @property
    def all_params_ok(self) -> bool:
        return all(check.ok for check in self.param_checks)

    @property
    def passed(self) -> bool:
        return self.all_recovered and self.all_params_ok

    def criterion_matrix(self) -> list[dict]:
        """One row per generating model: the selection criterion of every
        fitted model, as ``<criterion>_<id>``."""
        rows = []
        for generator, report in self.selections.items():
            row: dict = {"sample": generator.id}
            for model, fit_result in report.fits.items():
                row[f"{report.criterion}_{model.id}"] = (
                    report.criterion_value(model)
                    if not fit_result.excluded else None
                )
            row["best"] = report.best.id if report.best else None
            rows.append(row)
        return rows


def check_parameters(generator: Model, sample: DistanceSample,
                     fitted: m.ModelParams) -> list[ParamCheck]:
    """Compare a diagonal fit's parameters with the generating ones."""
    true_params = sampling.REFERENCE_PARAMS[generator]
    checks = []
    fitted_map = m.params_dict(fitted)
    for name, true_value in m.params_dict(true_params).items():
        tolerance = TOLERANCES.get(name)
        if tolerance is None:
            continue
        if name == "d_max":
            # Recovered as the observed maximum, whatever the generator's
            # nominal bound was.
            true_value = sample.max_d
        estimate = fitted_map[name]
        error = estimate - true_value
        checks.append(ParamCheck(
            model=generator, name=name, true_value=float(true_value),
            estimate=float(estimate), error=float(error),
            tolerance=tolerance, ok=abs(error) <= tolerance,
        ))
    return checks


def run_validation(
    seed: int = sampling.DEFAULT_SEED,
    size: int = sampling.SUITE_SIZE,
    criterion: str = "bic",
) -> ValidationReport:
    """Full generate-fit-select loop over the reference suite."""
    suite = sampling.generate_validation_suite(seed, size)
    selections: dict[Model, estimation.SelectionReport] = {}
    best: dict[Model, Model] = {}
    recovered: dict[Model, bool] = {}
    param_checks: list[ParamCheck] = []

    found = estimation.select_all(list(suite.values()), criterion=criterion)
    for (generator, sample), report in zip(suite.items(), found):
        selections[generator] = report
        best[generator] = report.best
        recovered[generator] = report.best is generator
        diagonal = report.fits[generator]
        if diagonal.params is not None:
            param_checks.extend(
                check_parameters(generator, sample, diagonal.params)
            )

    return ValidationReport(
        seed=seed, size=size, suite=suite, selections=selections,
        best=best, recovered=recovered, param_checks=param_checks,
    )
