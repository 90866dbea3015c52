import hypothesis

# These tests check values, not per-example run time; a cold first example
# (empty support-table caches, first numpy calls) on a busy host can exceed
# hypothesis' default deadline, so the deadline is disabled globally.
hypothesis.settings.register_profile(
    "frailty", deadline=None, max_examples=60, print_blob=True
)
hypothesis.settings.load_profile("frailty")
