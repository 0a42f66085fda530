"""Property tests draw their examples deterministically, so a failure
found once is found again on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
