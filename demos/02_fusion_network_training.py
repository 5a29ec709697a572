"""Train the two-stream fusion network and watch the anticipation loss.

The network maps every prefix of the paired streams to a distribution over
the five events.  Training is sequence-to-sequence with a constant target
(the event at the end), and each step's cross-entropy is weighted by
exp(-(T - t)): the final step costs full price, early steps almost nothing.
"""

import time

from maneuverkit import (
    EVENTS,
    ScenarioConfig,
    TrainConfig,
    generate,
    gradient_check,
    init_fusion_model,
    param_count,
    train,
)
from maneuverkit.numerics import make_rng

data = generate(ScenarioConfig(seed=3), 400)
model = init_fusion_model("fusion", input_x=6, input_z=9, hidden=16, events=EVENTS, rng=make_rng(1))

counts = param_count(model)
print(f"model has {counts['total']} parameters; largest blocks:")
for name, n in sorted(counts.items(), key=lambda kv: -kv[1])[1:6]:
    print(f"  {name:12} {n}")

# Before training: confirm the hand-written backpropagation against
# central finite differences of the actual loss.
rng = make_rng(2)
check = gradient_check(
    model, rng.standard_normal((6, 6)), rng.standard_normal((6, 9)), 2, TrainConfig()
)
print(f"\ngradient check: worst block {check.worst_block} "
      f"at {check.block_errors[check.worst_block]:.2e} (pass={check.passed})")

config = TrainConfig(epochs=8, learning_rate=2e-3, seed=4)
start = time.monotonic()
report = train(data, model, config)
print(f"\ntrained {config.epochs} epochs in {time.monotonic() - start:.1f}s")
for epoch, loss in enumerate(report.epoch_losses):
    bar = "#" * int(40 * loss / report.epoch_losses[0])
    print(f"  epoch {epoch}: {loss:7.4f} {bar}")

# The trained network sharpens toward the true event as context accrues.
from maneuverkit.fusion_rnn import forward

sample = next(s for s in data if EVENTS[s.label] == "right_lane")
probs, _ = forward(report.model, sample.xs, sample.zs)
print(f"\nper-step probabilities for a {EVENTS[sample.label]} sample "
      f"(cue onset at step {sample.meta['cue_onset']}):")
header = " ".join(f"{e[:9]:>9}" for e in EVENTS)
print(f"   t {header}")
for t, row in enumerate(probs):
    print(f"  {t:2d} " + " ".join(f"{p:9.3f}" for p in row))
