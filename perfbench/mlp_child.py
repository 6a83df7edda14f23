"""External model for the ``degree-external-d12`` workload.

A fixed-weight tanh MLP speaking the ``NSHAP-MODEL-V1`` line protocol on
stdin/stdout. The generator copies this file next to the weights it
draws from the workload seed; the engine starts it as

    python3 mlp_child.py weights.json child_times.log

After each batch the child appends its own busy time for that batch
(from the header line to the flushed ``END``) to the log, so the traced
run can split a batch into engine time and child time.
"""

import json
import sys
import time

import numpy as np


def mlp(weights: dict, rows: np.ndarray) -> np.ndarray:
    """The model: tanh hidden layer, linear read-out."""
    hidden = np.tanh(rows @ np.asarray(weights["w1"]) + np.asarray(weights["b1"]))
    return hidden @ np.asarray(weights["w2"]) + float(weights["b2"])


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        weights = json.load(fh)
    stdin, stdout = sys.stdin, sys.stdout
    with open(sys.argv[2], "a", encoding="utf-8") as log:
        while True:
            header = stdin.readline()
            if not header:
                return 0
            start = time.perf_counter()
            _, dim, count = header.split()
            dim, count = int(dim), int(count)
            text = "".join(stdin.readline() for _ in range(count))
            if stdin.readline().strip() != "END":
                sys.stderr.write("mlp_child: request did not end with END\n")
                return 1
            rows = np.array(text.replace(",", " ").split(), dtype=np.float64)
            preds = mlp(weights, rows.reshape(count, dim))
            stdout.write("\n".join(repr(v) for v in preds.tolist()) + "\nEND\n")
            stdout.flush()
            log.write(f"{time.perf_counter() - start!r}\n")
            log.flush()


if __name__ == "__main__":
    sys.exit(main())
