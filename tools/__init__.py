"""Repo tooling: static-analysis gates and CI helpers.

Making ``tools`` a package lets CI (and developers) run the consolidated
static-analysis entrypoint as ``python -m tools.lint`` from the repo
root.
"""
