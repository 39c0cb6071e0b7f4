#!/usr/bin/env python3
"""End-to-end demo: generate labeled scenarios on the shipped triangle
network, train the cell classifier on a 70/30 split, and report held-out
accuracy with a confusion matrix.

Writes patterns.json and model.json into --out-dir and prints a JSON report.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from hydrostate import ClassifierModel, classify, train
from hydrostate import report_io
from hydrostate.fuzzy import DEFAULT_GAMMA, DEFAULT_THETA
from hydrostate.scenarios import generate

HERE = Path(__file__).resolve().parent
SPLIT_SEED = 2024
TRAIN_FRACTION = 0.7


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--network", default=str(HERE / "triangle.json"))
    parser.add_argument("--spec", default=str(HERE / "scenario.json"))
    parser.add_argument("--out-dir", default=str(HERE / "out"))
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    args = parser.parse_args()

    net = report_io.decode_network(Path(args.network).read_text(encoding="utf-8"))
    spec = report_io.decode_scenario_spec(Path(args.spec).read_text(encoding="utf-8"))
    patterns, manifest = generate(net, spec)

    order = np.random.default_rng(SPLIT_SEED).permutation(len(patterns))
    n_train = int(round(TRAIN_FRACTION * len(patterns)))
    train_set = [patterns[i] for i in order[:n_train]]
    test_set = [patterns[i] for i in order[n_train:]]

    model = ClassifierModel.create(
        patterns[0].pattern.n_dims,
        theta=args.theta,
        gamma=args.gamma,
        normalization=np.asarray(manifest["normalization"], dtype=float),
    )
    model = train(model, train_set)

    labels = sorted({lp.label for lp in patterns})
    confusion = {true: {pred: 0 for pred in labels} for true in labels}
    hits = 0
    for lp in test_set:
        result = classify(model, lp.pattern)
        confusion[lp.label][result.winner] += 1
        hits += int(result.winner == lp.label)
    accuracy = hits / len(test_set)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "patterns.json").write_text(
        report_io.encode_patterns(patterns, manifest),
        encoding="utf-8",
    )
    (out_dir / "model.json").write_text(report_io.encode_model(model), encoding="utf-8")

    report = {
        "accuracy": accuracy,
        "cells": len(model.cells),
        "confusion": confusion,
        "test_patterns": len(test_set),
        "train_patterns": len(train_set),
    }
    sys.stdout.write(report_io.dumps(report))

    print("confusion matrix (rows = true, columns = predicted):")
    header = "true\\pred".ljust(12) + "".join(label.rjust(10) for label in labels)
    print(header)
    for true in labels:
        row = true.ljust(12) + "".join(str(confusion[true][p]).rjust(10) for p in labels)
        print(row)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
