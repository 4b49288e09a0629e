"""Kernel backend name; perfbench's environment record reads it."""

name = "python"
