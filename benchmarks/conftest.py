"""Benchmark fixtures: a collector that persists measured Table 2 /
plan-space rows for EXPERIMENTS.md."""
import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class Collector:
    def __init__(self, name: str):
        self.name = name
        self.rows = []

    def add(self, row: dict) -> None:
        self.rows.append(row)

    def flush(self) -> None:
        if not self.rows:
            return
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{self.name}.json"), "w") as f:
            json.dump(self.rows, f, indent=2)


@pytest.fixture(scope="session")
def table2_rows():
    c = Collector("table2")
    yield c
    c.flush()


@pytest.fixture(scope="session")
def plan_space_rows():
    c = Collector("plan_space")
    yield c
    c.flush()
