"""Write golden.json: the expected result of every benchmark op.

The digests pin the outputs of the code this is run on.  Run it only on
the commit whose outputs define correct, never to make a later change
pass:

    python3 perfbench/make_golden.py

CLI ops store the sha256 of their --no-meta stdout; battery items store
one digest of their exact fields per coefficient variant.
"""

from __future__ import annotations

import json
import sys

import workloads as w

sys.path.insert(0, str(w.SRC))


def main() -> int:
    golden: dict = {"cli": {}, "battery": {}}
    ops = {w.WARMUP}
    for families in w.CLI_WORKLOADS.values():
        for variants in families.values():
            ops.update(variants)
    for op in sorted(ops):
        res = w.run_cli(op, timeout=300.0)
        if res.code != 0:
            print(f"{op}: exit {res.code}\n{res.stderr.decode()}", file=sys.stderr)
            return 1
        golden["cli"][op] = w.sha256(res.stdout)
        if w.check_cli(res.code, res.stdout, golden, op) is not None:
            print(f"{op}: report is not strict JSON", file=sys.stderr)
            return 1
        print(f"{res.seconds:7.3f}s  {op}", file=sys.stderr)
    for kind in w.KINDS:
        digests = []
        for index in range(w.POOL):
            system = w.build_system(kind, index)
            row = []
            for variant in range(w.VARIANTS):
                item = w.Item(kind, index, variant, system,
                              w.coefficients(kind, index, variant, system.n))
                result = w.run_item(item)
                _, power4, exp1, independence = result
                if not (power4.holds and exp1.holds and independence.independent):
                    print(f"{item.key}: a check failed", file=sys.stderr)
                    return 1
                row.append(w.item_digest(result))
            digests.append(row)
        golden["battery"][kind] = digests
        print(f"battery {kind}: {w.POOL} systems x {w.VARIANTS} variants", file=sys.stderr)
    with open(w.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
