package dataset

// Oracle hooks for the external codec tests, which need datagen (an
// importer of this package) for their scenes.
var (
	OracleWriteJSON = oracleWriteJSON
	OracleReadJSON  = oracleReadJSON
)
