"""Repro files written before the ring/tree overlay was removed.

Those files store ``"dissemination"`` in their stack knobs.  A flood
file must still replay as the same scenario; a ring or tree file must
be refused with an error that says why, not a bare ``TypeError``.
"""

import json
from pathlib import Path

import pytest

from repro.explore.scenario import ScenarioConfig

ENTRY = Path(__file__).parent / "corpus" / "decide-before-dissemination-fetch.json"


def _config_obj(**stack_extra) -> dict:
    obj = json.loads(ENTRY.read_text())["config"]
    obj["stack"].update(stack_extra)
    return obj


def test_flood_repro_file_replays_as_the_same_scenario():
    old = ScenarioConfig.from_json_obj(_config_obj(dissemination="flood"))
    assert old == ScenarioConfig.from_json_obj(_config_obj())
    assert "dissemination" not in old.to_json_obj()["stack"]


@pytest.mark.parametrize("routing", ["ring", "tree"])
def test_overlay_repro_file_is_rejected_by_name(routing):
    with pytest.raises(ValueError, match="dissemination overlay"):
        ScenarioConfig.from_json_obj(_config_obj(dissemination=routing))
