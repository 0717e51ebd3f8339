#!/usr/bin/env python3
"""Golden outputs: one sha256 per user-visible output, checked in CI.

    python tools/goldens.py --write   # regenerate tools/goldens.json
    python tools/goldens.py --check   # exit 1 if any output's bytes moved

The outputs are the figures, sweep tables, pareto payloads and CLI
tables that a change to the simulator must keep byte-identical unless
it means to move results:

* ``REPRO_SCENES=<the 14 triangle scenes> repro report --fast``;
* ``repro figure gaussian --fast``;
* ``sweep_scenes`` for vtq and for prefetch (fast context);
* ``repro sweep gpu`` on seven GPUConfig axes, ``repro sweep vtq``;
* ``repro pareto BUNNY --fast --seed 7``, its JSON and its SVG;
* ``repro compare BUNNY`` (default setup).

Each output runs in a fresh process with a fresh ``REPRO_CACHE_DIR``.
Inherited ``REPRO_*`` variables are dropped, except
``REPRO_SOA_ENGINE``: both engines must print the same bytes, so CI
runs ``--check`` once per engine.  A change that moves results
regenerates the digests in the same diff and says what moved.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "tools" / "goldens.json"

REPRO = [sys.executable, "-m", "repro"]
TRIANGLE_SCENES = (
    "BUNNY,SPNZA,CHSNT,REF,CRNVL,BATH,PARTY,SPRNG,LANDS,FRST,PARK,FOX,CAR,ROBOT"
)
SWEEP_SCENES = (
    "import sys\n"
    "from repro.experiments import default_context, format_table\n"
    "from repro.experiments.sweeps import sweep_scenes\n"
    "print(format_table(sweep_scenes(default_context(fast=True), "
    "policy=sys.argv[1])))\n"
)
GPU_AXES = {
    "l2_bytes": "8192,16384,65536",
    "dram_latency": "300,471,700",
    "num_sms": "1,2,4",
    "l2_latency": "100,187,300",
    "warp_size": "16,32",
    "l1_bytes": "1024,2048,4096",
    "line_bytes": "32,64",
}


def _sweep_gpu(param: str, values: str):
    return REPRO + ["sweep", "gpu", param, values, "--scene", "BUNNY", "--fast"]


# name -> (argv, extra env, files to digest instead of stdout)
RUNS = {
    "report": (REPRO + ["report", "--fast", "--jobs", "2"],
               {"REPRO_SCENES": TRIANGLE_SCENES}, ()),
    "figure_gaussian": (REPRO + ["figure", "gaussian", "--fast"], {}, ()),
    "sweep_scenes_vtq": ([sys.executable, "-c", SWEEP_SCENES, "vtq"], {}, ()),
    "sweep_scenes_prefetch": (
        [sys.executable, "-c", SWEEP_SCENES, "prefetch"], {}, ()),
    **{f"sweep_gpu_{param}": (_sweep_gpu(param, values), {}, ())
       for param, values in GPU_AXES.items()},
    "sweep_vtq": (REPRO + ["sweep", "vtq", "queue_threshold", "8,32,64",
                           "--scene", "BUNNY", "--fast"], {}, ()),
    "pareto": (REPRO + ["pareto", "BUNNY", "--fast", "--seed", "7",
                        "--jobs", "2", "-o", "pareto.json"],
               {}, ("pareto.json", "pareto.svg")),
    "compare": (REPRO + ["compare", "BUNNY"], {}, ()),
}


def _env(run_dir: Path, extra) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_SOA_ENGINE"}
    env.update(extra, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(run_dir / "cache"))
    return env


def digests_of(name: str) -> dict:
    """``{output: sha256}`` of one run, in a fresh process and cache."""
    argv, extra, files = RUNS[name]
    with tempfile.TemporaryDirectory(prefix=f"goldens-{name}-") as tmp:
        run_dir = Path(tmp)
        proc = subprocess.run(argv, cwd=run_dir, env=_env(run_dir, extra),
                              capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"{name}: exit {proc.returncode}")
        if not files:
            return {name: hashlib.sha256(proc.stdout).hexdigest()}
        return {f"{name}.{Path(f).suffix[1:]}":
                hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
                for f in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {GOLDENS.relative_to(ROOT)}")
    mode.add_argument("--check", action="store_true",
                      help="compare every output with the committed digest")
    args = parser.parse_args(argv)

    engine = os.environ.get("REPRO_SOA_ENGINE", "default")
    got = {}
    for name in RUNS:
        got.update(digests_of(name))
    if args.write:
        GOLDENS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDENS.relative_to(ROOT)}: {len(got)} digests "
              f"(REPRO_SOA_ENGINE={engine})")
        return 0
    want = json.loads(GOLDENS.read_text())
    keys = sorted(set(want) | set(got))
    bad = [key for key in keys if want.get(key) != got.get(key)]
    for key in keys:
        print(f"{'MISMATCH' if key in bad else 'ok      '} {key}")
    print(f"{len(bad)} of {len(keys)} outputs differ "
          f"(REPRO_SOA_ENGINE={engine})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
