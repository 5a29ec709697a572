"""Seeded synthetic driving scenarios for training and verification.

Each sample is a pair of aligned streams at 0.8 s per step: outside context
x (lane flags, road-artifact flag, speed statistics) and inside context z
(unit-normalized head-motion histograms).  For maneuver samples an
informative head-motion cue begins a variable number of steps before the
sequence ends: the driver looks toward the maneuver direction, briefly
checks the opposite direction, and keeps glancing toward the maneuver until
it starts.  Lane changes show mostly horizontal motion; turns show wider
angular sweeps at lower vehicle speeds with a road artifact nearby.
Straight samples carry only baseline motion.

With ``noise_sigma = 0`` and the nuisance levels at zero the cue uniquely
determines the label; with ``cue_strength = 0`` the streams are
label-independent and nothing can beat chance.  A ``ScenarioConfig`` is
frozen and checks itself once, when made: its events are distinct known
names that include straight driving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .events import EVENTS, LEFT_LANE, LEFT_TURN, RIGHT_LANE, RIGHT_TURN, STRAIGHT
from .numerics import l2_normalize, make_rng

#: Event mix mirroring a natural corpus: lane changes, turns, straight.
CLASS_WEIGHTS = {
    LEFT_LANE: 137.0,
    RIGHT_LANE: 137.0,
    LEFT_TURN: 65.5,
    RIGHT_TURN: 65.5,
    STRAIGHT: 295.0,
}

# Inside-feature layout: 4 horizontal bins, 4 angular bins, center motion.
BASE_PATTERN = np.array([0.4, 1.1, 1.1, 0.4, 0.7, 0.7, 0.7, 0.7, 0.4])

ONSET_PATTERNS = {
    LEFT_LANE: np.array([3.2, 0.8, 0.0, 0.0, 0.0, 0.7, 2.4, 0.0, 1.6]),
    RIGHT_LANE: np.array([0.0, 0.0, 0.8, 3.2, 0.7, 0.0, 0.0, 2.4, 1.6]),
    LEFT_TURN: np.array([1.2, 0.7, 0.0, 0.0, 0.0, 2.6, 2.6, 0.0, 0.8]),
    RIGHT_TURN: np.array([0.0, 0.0, 0.7, 1.2, 2.6, 0.0, 0.0, 2.6, 0.8]),
}

MANEUVERS = (LEFT_LANE, RIGHT_LANE, LEFT_TURN, RIGHT_TURN)


def mirror_pattern(p: np.ndarray) -> np.ndarray:
    """Flip a 9-d motion pattern left/right (dx -> -dx in the image plane)."""
    h = p[3::-1]
    a = p[[5, 4, 7, 6]]
    return np.concatenate([h, a, p[8:]])


@dataclass(frozen=True)
class ScenarioConfig:
    events: tuple[str, ...] = EVENTS
    t_min: int = 6                 # sequence length range, in 0.8 s steps
    t_max: int = 12
    lead_min: int = 2              # cue begins this many steps before the end
    lead_max: int = 5
    cue_strength: float = 5.0
    noise_sigma: float = 0.1
    inside_nuisance: float = 0.0   # distracted-glance rate for the z stream
    outside_nuisance: float = 0.0  # flag flips and speed jitter for the x stream
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("t_min", "t_max", "lead_min", "lead_max", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Integral) and value >= 0):
                raise ValueError(f"field {name!r} must be a non-negative integer, got {value!r}")
        # written as "not (ok)", so NaN fails them too
        for name in ("cue_strength", "noise_sigma", "inside_nuisance", "outside_nuisance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Real) and 0.0 <= value < math.inf):
                raise ValueError(f"field {name!r} must be a finite non-negative number, got {value!r}")
        if not 2 <= self.t_min <= self.t_max:
            raise ValueError("need 2 <= t_min <= t_max")
        if not 1 <= self.lead_min <= self.lead_max:
            raise ValueError("need 1 <= lead_min <= lead_max")
        if self.lead_max >= self.t_min:
            raise ValueError("lead times must stay below the shortest sequence")
        if not all(isinstance(e, str) for e in self.events) or not set(self.events) <= set(EVENTS):
            raise ValueError(f"unknown events in {self.events!r}")
        repeated = [e for i, e in enumerate(self.events) if e in self.events[:i]]
        if repeated:
            raise ValueError(f"field 'events' names {repeated[0]!r} more than once")
        if STRAIGHT not in self.events:
            raise ValueError("the event set must include straight driving")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """A checked config from a JSON object of field overrides; the
        ValueError for a bad one names the field."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object of ScenarioConfig fields, got {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        for key in d:
            if key not in names:
                raise ValueError(f"unknown field {key!r}; the fields are {names}")
        d = dict(d)
        if "events" in d:
            if not isinstance(d["events"], list):
                raise ValueError(f"field 'events' must be a list of event names, got {d['events']!r}")
            d["events"] = tuple(d["events"])
        return cls(**d)


@dataclass
class SequenceSample:
    """One labeled scenario: aligned (T, 6) outside and (T, 9) inside streams."""

    id: str
    xs: np.ndarray
    zs: np.ndarray
    label: int                      # index into events.EVENTS
    meta: dict = field(default_factory=dict)

    @property
    def length(self) -> int:
        return self.xs.shape[0]


def _class_counts(config: ScenarioConfig, n: int) -> dict[str, int]:
    """Largest-remainder apportionment of n samples across the event mix."""
    weights = np.array([CLASS_WEIGHTS[e] for e in config.events], dtype=float)
    weights /= weights.sum()
    raw = weights * n
    counts = np.floor(raw).astype(int)
    for i in np.argsort(raw - counts)[::-1][: n - counts.sum()]:
        counts[i] += 1
    return dict(zip(config.events, (int(c) for c in counts)))


def _inside_stream(
    label: str, T: int, cue_onset: int | None, config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    zs = np.empty((T, 9))
    for t in range(T):
        raw = BASE_PATTERN.copy()
        if cue_onset is not None and t >= cue_onset:
            onset = ONSET_PATTERNS[label]
            # The second cue step is the opposite-direction check; every
            # other cue step looks toward the maneuver.
            if t == cue_onset + 1 and T - cue_onset >= 3:
                raw = raw + config.cue_strength * 0.8 * mirror_pattern(onset)
            else:
                raw = raw + config.cue_strength * onset
        if config.inside_nuisance > 0 and rng.random() < 0.25 * config.inside_nuisance:
            glance = ONSET_PATTERNS[MANEUVERS[int(rng.integers(0, 4))]]
            raw = raw + config.cue_strength * rng.uniform(0.4, 0.9) * glance
        if config.noise_sigma > 0:
            raw = raw + rng.normal(0.0, config.noise_sigma, size=9)
        zs[t] = l2_normalize(np.maximum(raw, 0.0))
    return zs


def _outside_stream(
    label: str, T: int, cue_onset: int | None, config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    informative = config.cue_strength > 0
    is_turn = informative and label in (LEFT_TURN, RIGHT_TURN)
    is_lane = informative and label in (LEFT_LANE, RIGHT_LANE)

    if is_lane:
        lane_left = 1.0 if label == LEFT_LANE else float(rng.random() < 0.5)
        lane_right = 1.0 if label == RIGHT_LANE else float(rng.random() < 0.5)
        base_artifact = 0.0
        cruise = rng.uniform(55.0, 75.0)
        target = cruise
    elif is_turn:
        lane_left = float(rng.random() < 0.2)
        lane_right = float(rng.random() < 0.2)
        base_artifact = 0.0
        cruise = rng.uniform(38.0, 55.0)
        target = rng.uniform(15.0, 28.0)
    else:
        lane_left = float(rng.random() < 0.5)
        lane_right = float(rng.random() < 0.5)
        base_artifact = float(rng.random() < 0.25)
        cruise = rng.uniform(35.0, 65.0)
        target = cruise

    jitter = 1.0 + 8.0 * config.outside_nuisance
    xs = np.empty((T, 6))
    for t in range(T):
        in_cue = cue_onset is not None and t >= cue_onset
        artifact = 1.0 if (is_turn and in_cue) else base_artifact
        if config.outside_nuisance > 0 and not (is_turn and in_cue):
            if rng.random() < 0.3 * config.outside_nuisance:
                artifact = 1.0 - artifact
        if is_turn and in_cue:
            # Speed ramps down across the cue window toward the turn speed.
            frac = (t - cue_onset + 1) / max(T - cue_onset, 1)
            speed = cruise + frac * (target - cruise)
        else:
            speed = cruise
        avg = speed + rng.normal(0.0, jitter)
        spread = abs(rng.normal(0.0, 1.5 + 4.0 * config.outside_nuisance))
        lo = max(avg - spread, 0.0)
        xs[t] = [lane_left, lane_right, artifact, avg, avg + spread, lo]
    return xs


def generate(config: ScenarioConfig, n: int) -> list[SequenceSample]:
    """Produce ``n`` labeled samples; identical configs give identical data."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = make_rng(config.seed)
    labels: list[str] = []
    for event, count in _class_counts(config, n).items():
        labels.extend([event] * count)
    rng.shuffle(labels)

    samples = []
    for idx, label in enumerate(labels):
        T = int(rng.integers(config.t_min, config.t_max + 1))
        if label == STRAIGHT or config.cue_strength == 0:
            cue_onset = None
            lead = None
        else:
            lead = int(rng.integers(config.lead_min, config.lead_max + 1))
            cue_onset = T - lead
        zs = _inside_stream(label, T, cue_onset, config, rng)
        xs = _outside_stream(label, T, cue_onset, config, rng)
        samples.append(
            SequenceSample(
                id=f"syn-{idx:05d}",
                xs=xs,
                zs=zs,
                label=EVENTS.index(label),
                meta={"cue_onset": cue_onset, "lead": lead},
            )
        )
    return samples


def oracle_classify(zs: np.ndarray, config: ScenarioConfig) -> int:
    """Nearest-pattern majority vote over the final two inside steps.

    Reference vectors are the noiseless late-step features of each class;
    ties go to the later step's vote.  Used as an independent check that the
    generated cues are decodable, not as a trained model.
    """
    refs = {STRAIGHT: l2_normalize(BASE_PATTERN)}
    for label, onset in ONSET_PATTERNS.items():
        refs[label] = l2_normalize(BASE_PATTERN + config.cue_strength * onset)
    names = [e for e in config.events]
    votes = []
    for z in zs[-2:]:
        sims = [float(refs[name] @ z) for name in names]
        votes.append(int(np.argmax(sims)))
    best = votes[-1] if len(set(votes)) == len(votes) else max(set(votes), key=votes.count)
    return EVENTS.index(names[best])


def split_folds(dataset: list[SequenceSample], k: int, seed: int) -> list[list[SequenceSample]]:
    """Uniform random partition into k disjoint, exhaustive folds."""
    n = len(dataset)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    order = make_rng(seed).permutation(n)
    return [[dataset[int(i)] for i in part] for part in np.array_split(order, k)]
