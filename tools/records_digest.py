"""Print the records digest of every benchmark spec of a checkout.

    python3 tools/records_digest.py <checkout>

For each workload of `<checkout>/perfbench/workloads.py` and each seed from
1 to 3, the seeded inputs are written to a temporary directory and one
`perfbench/child.py <spec> measure` of that checkout runs a single unit,
with the checkout's `src/` first on `PYTHONPATH` (the exec-ml20 decoder
process imports `qecbound` too).  One line per spec:

    <workload> <seed> <records_digest> <failed_checks>

so the records of two commits compare with one `diff` of two outputs.
The exit status is 1 when any spec reports failed checks (after every
line is printed), so a scripted comparison cannot pass over a failing
spec.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import WORKLOADS, make_inputs

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    failing = 0  # specs that report failed checks
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in WORKLOADS:
            for seed in SEEDS:
                spec = make_inputs(name, seed, root, work)
                spec.update(seconds=0.0, min_units=1, out_dir=str(work))
                spec_path = work / f"{name}_seed{seed}_spec.json"
                spec_path.write_text(json.dumps(spec))
                out = subprocess.run(
                    [sys.executable, str(root / "perfbench" / "child.py"), str(spec_path),
                     "measure"], cwd=root, env=env, capture_output=True, text=True)
                if out.returncode:
                    raise SystemExit(f"{name} seed {seed}: child exited {out.returncode}\n"
                                     f"{out.stderr.strip()[-2000:]}")
                result = json.loads(out.stdout.strip().splitlines()[-1])
                failed = result["checks"]["failed"]
                failing += failed > 0
                print(name, seed, result["records_digest"], failed, flush=True)
    if failing:
        print(f"{failing} spec(s) reported failed checks", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
