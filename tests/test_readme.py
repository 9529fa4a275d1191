"""README's file formats name the fields of the records they set.

The ``simulate --config`` key list must be ``SimulationConfig``'s fields in
order, and the ``roles.cfg`` example must set every ``ColumnRoleMap`` field.
"""

import dataclasses
import re
from pathlib import Path

import selweight as sw

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_the_config_keys_are_the_scenario_fields_in_order():
    listed = re.search(r"the scenario fields \(([^)]*)\)", README).group(1)
    assert re.findall(r"`([^`]+)`", listed) == [
        f.name for f in dataclasses.fields(sw.SimulationConfig)]


def test_the_roles_example_sets_every_role(tmp_path):
    example = re.search(r"^`roles\.cfg` is a .*?^```\n(.*?)^```", README,
                        flags=re.DOTALL | re.MULTILINE).group(1)
    path = tmp_path / "roles.cfg"
    path.write_text(example, encoding="utf-8")
    roles = sw.parse_role_map(path)
    assert all(getattr(roles, f.name) for f in dataclasses.fields(roles))
