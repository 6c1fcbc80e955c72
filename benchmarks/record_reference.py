"""Record the reference answers that have no closed form into reference.json.

Run from the repository root at the commit whose answers are the
reference (the benchmark's seed commit):

    python3 benchmarks/record_reference.py

It stores detect and Gagola results of every catalog character table, the
subring count of A4 x A4 x S3, form class counts, the exit code and stdout
digest of every well-formed `--format json` CLI item, and which
malformed-input CLI items fail (exit not 2 or 3, or not one stderr line).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fusionring as fr  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    rng = np.random.default_rng(0)
    tables = [wl.catalog_table(name, rng) for name in wl.catalog_names("characterTable")]
    ref = {"detect": {}, "gagola": {}}
    for t in tables:
        table = fr.load_entry(t.name).payload
        report = fr.detect(fr.character_table_to_fusion_ring(table))
        ref["detect"][t.name] = None if report is None else [report.kappa, report.big_n]
        g = fr.gagola_analyze(table)
        ref["gagola"][t.name] = None if g is None else [
            g.kappa, g.vanishing_classes, int(round(table.rows[g.rho_row, 0].real))]
    a4, s3 = fr.entry_ring("A4"), fr.entry_ring("S3")
    ref["product_subrings"] = len(fr.enumerate_subrings(
        fr.product_ring(fr.product_ring(a4, a4), s3)))
    ref["form_classes"] = {wl.group_name(g): len(fr.form_classes(g))
                           for g in wl.QFORM_GROUPS}
    ref["catalog_entries"] = len(fr.list_catalog())
    ref["cli"] = {}
    for key, argv, stdin in wl.cli_cases(tables, rng):
        code, out, _ = wl.run_cli(argv, stdin)
        ref["cli"][key] = [code, wl.digest(out)]
    ref["known_failing_probes"] = []
    for name, argv, stdin in wl.MALFORMED:
        step = wl.probe_step(name, argv, stdin)
        try:
            step.check(step.run({}), {})
        except Exception:  # a traceback or a wrong exit code both count
            ref["known_failing_probes"].append(step.id)
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
