"""Tests for the benchmark's own parts: inputs, arithmetic and oracle."""
