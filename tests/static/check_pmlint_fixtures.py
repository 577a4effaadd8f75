#!/usr/bin/env python3
"""Negative tests for tools/pmlint: each fixture must produce exactly the
expected multiset of findings.  A checker that silently stops firing is
worse than no checker — the zero-findings gate over src/ would keep
passing while the discipline erodes — so this driver pins every rule (and
the waiver machinery) against small known-bad inputs.

Usage: check_pmlint_fixtures.py <pmlint.py> <fixtures-dir>
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

# fixture file -> {rule: expected count}
EXPECTED = {
    "bad_raw_mutex.cc": {"raw-mutex": 3},
    "bad_device_store.cc": {"raw-device-store": 2},
    "bad_unfenced_commit.cc": {"fence-before-commit": 1},
    "bad_rmw_no_persist.cc": {"rmw-persist": 2},
    "waived_ok.cc": {},
    "bad_waiver.cc": {"bad-waiver": 2, "raw-mutex": 1},
    "bad_env_read.cc": {"env-read": 2},
}


def findings_of(pmlint: Path, fixture: Path) -> Counter:
    proc = subprocess.run(
        [sys.executable, str(pmlint), str(fixture), "--root",
         str(fixture.parent)],
        capture_output=True, text=True)
    counts: Counter = Counter()
    for line in proc.stdout.splitlines():
        # "<file>:<line>: <rule>: <message>"
        parts = line.split(": ", 2)
        if len(parts) == 3 and ":" in parts[0]:
            counts[parts[1]] += 1
    want_rc = 1 if counts else 0
    if proc.returncode != want_rc:
        print(f"FAIL {fixture.name}: exit {proc.returncode}, "
              f"expected {want_rc}\n{proc.stdout}{proc.stderr}")
        sys.exit(1)
    return counts


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    pmlint = Path(sys.argv[1]).resolve()
    fixtures = Path(sys.argv[2]).resolve()
    failures = 0
    for name, want in sorted(EXPECTED.items()):
        path = fixtures / name
        if not path.exists():
            print(f"FAIL {name}: fixture missing")
            failures += 1
            continue
        got = findings_of(pmlint, path)
        if got != Counter(want):
            print(f"FAIL {name}: findings {dict(got)}, expected {want}")
            failures += 1
        else:
            print(f"ok   {name}: {dict(got) or 'clean'}")
    extra = {p.name for p in fixtures.glob("*.cc")} - set(EXPECTED)
    if extra:
        print(f"FAIL: fixtures without expectations: {sorted(extra)}")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
