from hypothesis import settings

# property tests draw the same examples on every run and have no time limit
settings.register_profile("tul", derandomize=True, deadline=None)
settings.load_profile("tul")
