"""End-to-end pipeline benchmark (build / query / serve); see README.md."""
