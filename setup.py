"""Setup for the src-layout package (legacy setup.py on purpose: offline
environments without the ``wheel`` package cannot build PEP 660 editable
wheels, while ``pip install -e .`` via setuptools' develop path works
everywhere).

After ``pip install -e .`` the tier-1 command no longer needs PYTHONPATH:
``python -m pytest -x -q``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-minato",
    version="0.1.0",
    description=(
        "Reproduction of the MinatoLoader sample-aware data loader "
        "(EuroSys'26): threaded engine, discrete-event simulator and a "
        "shared substrate-neutral policy layer"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # 1.22: the first release whose percentile API carries the ``linear``
    # method's _lerp formula that core/profiler.py reproduces bit for bit
    install_requires=["numpy>=1.22"],
    entry_points={"console_scripts": ["repro = repro.__main__:main"]},
)
