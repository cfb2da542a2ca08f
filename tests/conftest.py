"""Registers the Hypothesis profiles and loads ``tier1`` (tests/profiles.py)
before pytest's ``--hypothesis-profile`` option may load another."""
import profiles  # noqa: F401
