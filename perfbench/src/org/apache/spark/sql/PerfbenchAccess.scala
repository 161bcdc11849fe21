package org.apache.spark.sql

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** Two package-private Spark hooks the benchmark reads through. */
object PerfbenchAccess {

  /** Blocks until every listener event posted so far has been handled;
    * Spark delivers them asynchronously.
    */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** The executed plan of a finished `collect`, if the event is one. */
  def collectedPlan(e: SparkListenerSQLExecutionEnd): Option[SparkPlan] =
    if (e.executionName.contains("collect") && e.qe != null) Some(e.qe.executedPlan) else None
}
