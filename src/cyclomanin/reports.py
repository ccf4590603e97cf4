"""Machine-readable check reports shared by the verification entry points."""

import json


class CheckReport:
    """Outcome of one verification command.

    Serializes deterministically: sorted keys, ints/strings/bools only,
    no timestamps.  Process exit status is 0 iff every check passed, and
    a report with no checks does not pass.
    """

    def __init__(self, command, params):
        self.command = command
        self.params = dict(params)
        self.checks = []
        self.fixtures_written = []
        # (header, rows) that --csv writes; kept out of the JSON report
        self.table = None

    def add(self, name, passed, details=""):
        if not isinstance(details, (str, int, dict, list)):
            details = str(details)
        self.checks.append({"name": name, "pass": bool(passed), "details": details})
        return passed

    @property
    def all_pass(self):
        return bool(self.checks) and all(c["pass"] for c in self.checks)

    def to_dict(self):
        return {
            "command": self.command,
            "params": self.params,
            "checks": self.checks,
            "fixtures_written": list(self.fixtures_written),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def __repr__(self):
        state = "pass" if self.all_pass else "FAIL"
        return f"CheckReport({self.command}, {len(self.checks)} checks, {state})"


def canonical_json(obj):
    """Canonical fixture serialization: sorted keys, newline-terminated."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
