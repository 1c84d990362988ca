"""Bundled sample inputs: a ten-candidate rating table over the six core
SaaS features, and the matching user constraint spec (threshold 6)."""

from importlib import resources

from .ingest import parse_constraint_spec, parse_dataset
from .model import CandidateDataset, ConstraintSpec


def _data(name: str):
    return resources.files("cbceval").joinpath("data").joinpath(name)


def sample_dataset_text() -> str:
    return _data("sample_data.csv").read_text(encoding="utf-8")


def sample_constraints_text() -> str:
    return _data("sample_constraints.json").read_text(encoding="utf-8")


def load_sample_dataset() -> CandidateDataset:
    return parse_dataset(sample_dataset_text())


def load_sample_constraint_spec() -> ConstraintSpec:
    return parse_constraint_spec(sample_constraints_text())
