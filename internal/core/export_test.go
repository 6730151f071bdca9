package core

// InstallStaticRoutesExact is the N-region oracle entry with
// default-route collapse off — the setting the one-region entry runs
// with — so a test can hold the two entries against each other.
func InstallStaticRoutesExact(regions []*Network) { installStaticRoutes(regions, false) }
