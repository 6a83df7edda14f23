"""Set-up only: everything an ``nshapley`` run does before its first point.

Run from a generated workload directory with the checkout's ``src`` on
``PYTHONPATH``:

    python3 setup_probe.py run.json

It imports nshapley, loads the config and the CSV, and builds the model
and the value function, then exits. Its wall time is ``setup_s``.
"""

import sys

from nshapley import config, datasets


def main() -> int:
    cfg = config.load_config(sys.argv[1])
    dataset = datasets.load_csv(cfg.data, label_column=config.model_label_column(cfg.model))
    model = config.build_model(cfg.model, dataset)
    if cfg.background == "all":
        background = dataset.rows
    else:
        start, stop = cfg.background
        background = dataset.rows[start:stop]
    config.build_value_function(cfg.value_fn, model, dataset, background)
    return 0


if __name__ == "__main__":
    sys.exit(main())
