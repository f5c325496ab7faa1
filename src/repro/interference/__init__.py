"""Interference substrate: the linear performance-counter proxy."""
