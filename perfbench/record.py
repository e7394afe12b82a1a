"""Record the reference digests that the correctness gate checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every operation of each workload's pool once and writes
perfbench/reference/<workload>.json. The references belong to the commit
that defined the benchmark: re-record only when the benchmark itself
changes, never to make a changed program pass.
"""

import json
import sys
import warnings

import workloads as wl


def record(workload: wl.Workload) -> None:
    pool = workload.pool()
    digests = []
    wl.WORK_DIR.mkdir(exist_ok=True)
    out_path = wl.WORK_DIR / "cli-out.csv"
    stdout_path, stderr_path = wl.WORK_DIR / "cli-stdout.txt", wl.WORK_DIR / "cli-stderr.txt"
    for i, op in enumerate(pool):
        if workload.in_process:
            digest = wl.RUNNERS[workload.name](op)
        else:
            argv = wl.cli_argv(op, out_path)
            code, _ = wl.spawn_cli(argv, stdout_path, stderr_path)
            if code != op["exit"]:
                raise SystemExit(f"{workload.name} op {i} {argv}: exit {code}, "
                                 f"expected {op['exit']}\n{stderr_path.read_text()}")
            text = (out_path if "--out" in argv else stdout_path).read_text() if code == 0 else ""
            digest = wl.cli_digest(argv, code, text)
        digests.append(digest)
        if i % 100 == 0:
            print(f"{workload.name}: {i + 1}/{len(pool)}", file=sys.stderr)
    data = wl.reference_data(workload, digests)
    path = wl.reference_path(workload.name)
    path.parent.mkdir(exist_ok=True)
    # One digest per line, so a re-recording diffs line by line.
    rows = ",\n".join(json.dumps(row) for row in data.pop("digests"))
    path.write_text(json.dumps(data)[:-1] + f', "digests": [\n{rows}\n]}}\n')
    print(f"wrote {path} ({len(digests)} digests)", file=sys.stderr)


def main() -> int:
    wl.ensure_source()
    warnings.filterwarnings("ignore", message="fewer than 50 replications")
    names = sys.argv[1:] or list(wl.WORKLOADS)
    for name in names:
        record(wl.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
