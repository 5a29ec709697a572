"""The full evaluation protocol: sweeps, both score systems, cross-validation.

Session-outcome scores count true/false/false-positive/missed predictions:
Pr = tp/(tp+fp+fpp), Re = tp/(tp+fp+mp).  Macro scores average per-maneuver
precision and recall, with straight excluded.  Headline numbers come from a
5-fold cross-validation at each fold's best-F1 threshold, reported as mean
with standard error.
"""

from maneuverkit import (
    EVENTS,
    FusionRnnPredictor,
    ScenarioConfig,
    TrainConfig,
    cross_validate,
    evaluate_dataset,
    generate,
    init_fusion_model,
    threshold_sweep,
    train,
)
from maneuverkit.numerics import make_rng

data = generate(ScenarioConfig(seed=17, noise_sigma=0.2), 500)
holdout, train_set = data[:100], data[100:]

model = init_fusion_model("fusion", 6, 9, 16, EVENTS, make_rng(0))
report = train(train_set, model, TrainConfig(epochs=8, learning_rate=2e-3, seed=1))
predictor = FusionRnnPredictor(report.model)

print("threshold sweep on the holdout:")
sweep = threshold_sweep(predictor, holdout, [round(0.1 * i, 2) for i in range(2, 10)])
for i, p in enumerate(sweep.points):
    mark = "  <- best F1" if i == sweep.best_index else ""
    f1 = "undef" if p.f1 is None else f"{p.f1:.3f}"
    print(f"  p_th={p.p_th:.1f}  F1={f1}{mark}")

best = sweep.best
ev = evaluate_dataset(predictor, holdout, best.p_th)
macro_pr, macro_re = ev.macro_scores()
c = ev.counts
print(f"\nfull scorecard at p_th={best.p_th}:")
print(f"  counts: tp={c.tp} fp={c.fp} fpp={c.fpp} mp={c.mp}")
print(f"  session: Pr={ev.precision:.3f} Re={ev.recall:.3f} F1={ev.f1:.3f}")
print(f"  macro:   Pr={macro_pr:.3f} Re={macro_re:.3f}")
print(f"  time-to-maneuver: {ev.mean_ttm_steps:.2f} steps ({ev.mean_ttm_steps * 0.8:.2f} s)")
print("  confusion (rows = predicted, cols = actual):")
print("  " + " " * 11 + " ".join(f"{e[:10]:>10}" for e in ev.events))
for name, row in zip(ev.events, ev.confusion):
    print(f"  {name:>10} " + " ".join(f"{int(v):>10}" for v in row))


def trainer(train_samples, fold_idx):
    m = init_fusion_model("fusion", 6, 9, 16, EVENTS, make_rng(10 + fold_idx))
    r = train(train_samples, m, TrainConfig(epochs=6, learning_rate=2e-3, seed=10 + fold_idx))
    return FusionRnnPredictor(r.model)


print("\n5-fold cross-validation (each fold at its own best threshold):")
cv = cross_validate(data, 5, trainer, seed=3, grid=[round(0.1 * i, 2) for i in range(2, 10)])
for i, fold in enumerate(cv.folds):
    print(f"  fold {i}: Pr={fold.precision:.3f} Re={fold.recall:.3f} "
          f"F1={fold.f1:.3f} ttm={fold.mean_ttm_steps:.2f} steps @ p_th={fold.p_th}")
pr, pr_se = cv.precision_mean_stderr()
re, re_se = cv.recall_mean_stderr()
ttm, ttm_se = cv.ttm_mean_stderr()
print(f"  mean: Pr={pr:.3f}+/-{pr_se:.3f}  Re={re:.3f}+/-{re_se:.3f}  "
      f"ttm={ttm * 0.8:.2f}+/-{ttm_se * 0.8:.2f} s")
