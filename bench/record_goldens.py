"""Record bench/goldens.json from the library in this checkout's src/.

    python3 bench/record_goldens.py

Writes, beside the commit SHA they were recorded at:
- ``cli``: exit code, stdout length and SHA-256 for every argv in the
  cli_verbs corpus (``workloads.cli_corpus``); the benchmark fails any
  request whose exit code or stdout bytes differ;
- ``shifts``: the number of sequences in the shifts universe and, for each
  valid one, its automaton states, the SHA-256 of its word counts, its
  entropy estimate and bound and its automaton entropy
  (``workloads.shift_golden``); the benchmark fails any request whose
  validity differs, whose states or counts differ, or whose entropies
  differ by more than 1e-9.

Record once, at the commit the goldens are meant to pin; re-recording after
a change to the library would hide the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import git_sha, import_library
from workloads import (GOLDENS, SHIFT_CAP, cli_corpus, golden_key, run_cli, shift_call,
                       shift_golden, shift_universe)


def shift_goldens(nb) -> dict:
    seqs = shift_universe(nb, SHIFT_CAP)
    valid = {}
    for seq in seqs:
        golden = shift_golden(shift_call(nb, seq))
        if golden is not None:
            valid[str(seq)] = golden
    return {"sequences": len(seqs), "valid": valid}


def main() -> int:
    nb = import_library()
    cli = {}
    for argv in cli_corpus():
        code, stdout = run_cli(nb.cli, argv)
        cli[golden_key(argv)] = {"exit": code, "bytes": len(stdout),
                                 "sha256": hashlib.sha256(stdout).hexdigest()}
    data = {"commit": git_sha(), "cli": cli, "shifts": shift_goldens(nb)}
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{len(cli)} CLI goldens, {len(data['shifts']['valid'])} valid of "
          f"{data['shifts']['sequences']} shifts sequences at {data['commit']} -> {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
