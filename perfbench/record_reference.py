"""Record the exact outputs the benchmark checks against (reference.json).

    python3 perfbench/record_reference.py

Run once at the commit whose behaviour is the reference.  For every
algebra the workloads use it records the structure, nilpotency class,
center and derived bases (as hashes), the canonical Pfaffian, square
integrability and the verified split; for each exact CLI invocation, the
hash of its --json output and the octonion table.
"""

import hashlib
import json
import subprocess
import sys

import run
import workloads


def algebra_entry(name, mods):
    catalog, algebra = mods["catalog"], mods["algebra"]
    pfaffian, stepwise = mods["pfaffian"], mods["stepwise"]
    alg = catalog.from_name(name)
    sq = pfaffian.is_square_integrable(alg)
    entry = {
        "dim": alg.dim,
        "center": list(alg.center_indices),
        "complement": list(alg.complement_indices),
        "center_dim": len(alg.center_indices),
        "nilpotency_class": algebra.nilpotency_class(alg),
        "center_sha": workloads.rows_sha(algebra.center(alg)),
        "derived_sha": workloads.rows_sha(algebra.derived_subalgebra(alg)),
        "pfaffian": sq.pf.format(),
        "square_integrable": bool(sq),
        "split": None,
    }
    if not sq:
        dec = stepwise.find_codim_split(alg)
        entry["split"] = {"l1": list(dec.l1_indices),
                          "l2": list(dec.l2_indices),
                          "flags": stepwise.verify(dec)}
        v1 = workloads.split_v1(entry)
        entry["pf_v1"] = pfaffian.pf_polynomial(alg, v_indices=v1).format()
    return entry


def cli_output(text):
    proc = subprocess.run(
        [sys.executable, "-m", "nilharm.cli"] + text.split(),
        cwd=run.ROOT, env=run.isolated_env(), stdout=subprocess.PIPE,
        check=True)
    return proc.stdout


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    mods = workloads.load_modules()
    names = sorted(set(workloads.SWEEP_POOL) | set(workloads.QUERY_ALGEBRAS)
                   | {workloads.ORBIT_ALGEBRA} | set(workloads.CLI_AT_ALGEBRAS))
    algebras = {}
    for name in names:
        print("recording", name, flush=True)
        algebras[name] = algebra_entry(name, mods)

    # pf_nonsingular restricts to the same v1 as the recorded split
    orbit_alg = mods["catalog"].from_name(workloads.ORBIT_ALGEBRA)
    assert (mods["orbits"].l1_complement_indices(orbit_alg)
            == workloads.split_v1(algebras[workloads.ORBIT_ALGEBRA]))

    cli = {text: hashlib.sha256(cli_output(text)).hexdigest()
           for text in workloads.CLI_EXACT}
    cli["octonion_table"] = json.loads(cli_output("octonion table --json"))[
        "table"]
    with open(workloads.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"algebras": algebras, "cli": cli}, fh, sort_keys=True,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
