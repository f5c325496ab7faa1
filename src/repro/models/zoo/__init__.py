"""Concrete model builders (one module per paper Table 2 model)."""
