"""Runtime substrate: task records, the pricing cache, and the DES engine."""
