"""Event vocabulary shared across datasets, models, and reports.

Five driving events are recognized.  ``straight`` is the rest state: it is
the default prediction, it always sits at the last index of an event tuple,
and it is excluded from the macro precision/recall averages.
"""

from __future__ import annotations

LEFT_LANE = "left_lane"
RIGHT_LANE = "right_lane"
LEFT_TURN = "left_turn"
RIGHT_TURN = "right_turn"
STRAIGHT = "straight"

#: Canonical label order used by dataset files and default models.
EVENTS: tuple[str, ...] = (LEFT_LANE, RIGHT_LANE, LEFT_TURN, RIGHT_TURN, STRAIGHT)

#: Prediction settings: which events a model anticipates.
SETTINGS: dict[str, tuple[str, ...]] = {
    "all": EVENTS,
    "lane": (LEFT_LANE, RIGHT_LANE, STRAIGHT),
    "turn": (LEFT_TURN, RIGHT_TURN, STRAIGHT),
}


def events_for_setting(setting: str) -> tuple[str, ...]:
    """Return the event tuple for a named prediction setting."""
    try:
        return SETTINGS[setting]
    except KeyError:
        raise ValueError(
            f"unknown setting {setting!r}; expected one of {sorted(SETTINGS)}"
        ) from None


def straight_index(events: tuple[str, ...]) -> int:
    """Index of the straight event; raises if the vocabulary lacks one."""
    if STRAIGHT not in events:
        raise ValueError(f"event tuple {events!r} has no {STRAIGHT!r} entry")
    return events.index(STRAIGHT)


def map_label_to_model(canonical_label: int, model_events: tuple[str, ...]) -> int:
    """Translate a canonical label index into a model's event index."""
    name = EVENTS[canonical_label]
    try:
        return model_events.index(name)
    except ValueError:
        raise ValueError(f"label {name!r} not among model events {model_events!r}") from None


def validate_events(events: tuple[str, ...]) -> None:
    """Check an event tuple: known labels, no duplicates, straight last."""
    unknown = [e for e in events if e not in EVENTS]
    if unknown:
        raise ValueError(f"unknown event labels {unknown!r}")
    if len(set(events)) != len(events):
        raise ValueError(f"duplicate event labels in {events!r}")
    if not events or events[-1] != STRAIGHT:
        raise ValueError(f"{STRAIGHT!r} must be the last event, got {events!r}")
